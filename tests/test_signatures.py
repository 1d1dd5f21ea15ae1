import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicsieve import signatures
from nicsieve.codec import RawFrame, parse_payloads
from nicsieve.bloom import (DEFAULT_SEED_A, DEFAULT_SEED_B, BloomParams,
                           fpr_theoretical)
from nicsieve.signatures import (
    CandidateMatch,
    ExactScanner,
    Payloads,
    RuleParseError,
    Signature,
    SignatureMatcher,
    SignatureSet,
    load_rules,
)
from nicsieve.pipeline import compare_baseline
from nicsieve.traffic import TrafficSpec, build_tcp_frame, generate_trace

from conftest import (
    naive_exact_matches,
    random_signature_set,
    reference_candidates,
    reference_trace,
    row_array,
)

PARAMS = BloomParams(m=16384, k=4, seed_a=77, seed_b=78)
DENSE = BloomParams(m=1024, k=4, seed_a=77, seed_b=78)
# one probe: the first round decides, so the scan gathers no stride
SINGLE_PROBE = BloomParams(m=1024, k=1, seed_a=77, seed_b=78)


def as_tuples(matches):
    return [(m.offset, m.length, m.signature_id) for m in matches]


def as_windows(candidates):
    return [(c.offset, c.length) for c in candidates]


def scan_one(matcher, payload):
    return matcher.scan_batch(Payloads.of([payload])).by_payload().get(0, [])


def scan_each(matcher, payloads):
    """``scan_batch``'s windows in each of ``payloads``, one list per payload."""
    return per_payload(matcher.scan_batch(Payloads.of(payloads)).by_payload(),
                       len(payloads))


def exact_one(matcher, payload):
    return matcher.exact_matches_batch(Payloads.of([payload])).get(0, [])


def per_payload(found, size):
    """A sparse map from payload index (the exact route's matches, or
    ``Windows.by_payload()``) as one list per payload."""
    assert all(found.values()) and list(found) == sorted(found)
    return [found.get(i, []) for i in range(size)]


# --- rule loading -----------------------------------------------------------

def test_load_rules_hex():
    rules = load_rules(b"sig1,hex,474554\n")
    assert len(rules) == 1
    assert rules.signatures[0] == Signature(id="sig1", pattern=b"GET")


def test_load_rules_comments_and_duplicate_patterns():
    rules = load_rules(b"a,ascii,attack\n# comment\na2,ascii,attack\n")
    assert len(rules) == 2
    assert rules.signatures[0].pattern == rules.signatures[1].pattern


def test_load_rules_blank_lines_and_whitespace():
    rules = load_rules("\n  \nr1, ascii ,hit me\n\n# tail\n")
    assert len(rules) == 1
    assert rules.signatures[0].pattern == b"hit me"


def test_load_rules_ascii_value_may_contain_commas():
    rules = load_rules(b"r1,ascii,a,b,c\n")
    assert rules.signatures[0].pattern == b"a,b,c"


def test_load_rules_breaks_lines_only_at_line_ends():
    # str.splitlines() would also break at these; they belong to the value
    for ch in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        rules = load_rules(f"a,ascii,GET /x{ch}b,ascii,cmd.exe\n".encode())
        assert [(s.id, s.pattern) for s in rules.signatures] == [
            ("a", f"GET /x{ch}b,ascii,cmd.exe".encode())]
        rules = load_rules(f"a,ascii,x{ch}y\n")
        assert rules.signatures[0].pattern == f"x{ch}y".encode()


def test_load_rules_crlf_and_cr_line_ends():
    for eol in ("\r\n", "\r", "\n"):
        text = eol.join(["a,ascii,cmd.exe", "# note", "", "b,hex,4745 54"]) + eol
        rules = load_rules(text.encode())
        assert [(s.id, s.pattern) for s in rules.signatures] == [
            ("a", b"cmd.exe"), ("b", b"GET")]
        with pytest.raises(RuleParseError) as err:
            load_rules(f"a,ascii,xx{eol}{eol}a,ascii,yy{eol}")
        assert err.value.line == 3


def test_load_rules_errors_carry_line_numbers():
    with pytest.raises(RuleParseError, match="line 1") as err:
        load_rules(b"a,hex,4\n")
    assert err.value.line == 1

    with pytest.raises(RuleParseError, match="line 3"):
        load_rules(b"a,ascii,xx\n# ok\na,ascii,yy\n")

    with pytest.raises(RuleParseError, match="line 2"):
        load_rules(b"a,ascii,xx\nbroken line\n")

    with pytest.raises(RuleParseError, match="line 1"):
        load_rules(b"a,base64,eHg=\n")

    with pytest.raises(RuleParseError, match="line 2") as err:
        load_rules(b"a,ascii,ok\nb,ascii,x\n")  # 1 byte: too short
    assert "length" in str(err.value)

    with pytest.raises(RuleParseError, match="length"):
        load_rules(f"a,ascii,{'x' * 65}\n")

    with pytest.raises(RuleParseError, match="line 1"):
        load_rules(b" ,ascii,xx\n")  # empty id

    # a byte that is not UTF-8 names its line, whichever line ends precede it
    with pytest.raises(RuleParseError, match="line 2") as err:
        load_rules(b"a,ascii,x\nb,ascii,caf\xe9\n")
    assert "UTF-8" in str(err.value)
    for eol in (b"\r\n", b"\r"):
        with pytest.raises(RuleParseError, match="line 3"):
            load_rules(b"a,ascii,xx" + eol + b"# ok" + eol + b"b,ascii,\xff\xfe")


def test_load_rules_skips_a_byte_order_mark():
    bom = b"\xef\xbb\xbf"
    for text in (bom + b"# my rules\nweb1,ascii,GET /x\n",
                 bom + b"web1,ascii,GET /x\n"):
        for rules in (load_rules(text), load_rules(text.decode("utf-8"))):
            assert [(s.id, s.pattern) for s in rules.signatures] == [
                ("web1", b"GET /x")]
    # a later byte that is not UTF-8 is still named, on its own line
    with pytest.raises(RuleParseError, match="line 2: byte 0xE9 "):
        load_rules(bom + b"a,ascii,x\nb,ascii,caf\xe9\n")


def test_signature_set_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        SignatureSet(signatures=[Signature("a", b"xx"), Signature("a", b"yy")])


def test_by_length_rows_follow_rule_order():
    # each length's rows are its patterns in rule order, a duplicate
    # pattern keeps a row per id, and row i is the pattern of ids[i]
    sset = load_rules(b"a,ascii,GET /\nb,hex,0d0a\nc,ascii,EVIL\n"
                      b"d,ascii,GET /\ne,ascii,xy\nf,hex,0d0a\n")
    groups = sset.by_length()
    assert list(groups) == [5, 2, 4]
    assert groups[5][0] == ["a", "d"]
    assert groups[2][0] == ["b", "e", "f"]
    assert [row.tobytes() for row in groups[2][1]] == [b"\r\n", b"xy", b"\r\n"]
    for sset in (sset, random_signature_set(random.Random(35), 300)):
        pattern = {s.id: s.pattern for s in sset.signatures}
        for length, (ids, rows) in sset.by_length().items():
            assert rows.dtype == np.uint8 and rows.shape == (len(ids), length)
            assert ids == [s.id for s in sset.signatures
                           if len(s.pattern) == length]
            assert [row.tobytes() for row in rows] == [pattern[i] for i in ids]
        assert sum(len(ids) for ids, _ in sset.by_length().values()) == \
            len(sset)
    assert SignatureSet([]).by_length() == {}


# --- programming ------------------------------------------------------------

def test_program_groups_by_length():
    rules = SignatureSet([Signature("g", b"GET"), Signature("e", b"EVIL")])
    matcher = SignatureMatcher.program(rules, PARAMS)
    assert matcher.lengths == [3, 4]
    assert matcher.filters[3].count_programmed == 1
    assert matcher.filters[4].count_programmed == 1


def test_program_leaves_exact_tables_unbuilt():
    # building filters never reads the exact route; its tables wait for use
    rules = SignatureSet([Signature("g", b"GET"), Signature("e", b"EVIL")])
    matcher = SignatureMatcher.program(rules, PARAMS)
    matcher.filter_images()
    assert "exact" not in vars(matcher)
    assert matcher.exact_matches_batch(Payloads.of([b"a GET"])) == {
        0: [CandidateMatch(2, 3, "g")]}
    assert "exact" in vars(matcher)


def test_program_rejects_empty_set():
    with pytest.raises(ValueError, match="empty"):
        SignatureMatcher.program(SignatureSet(signatures=[]), PARAMS)


def test_program_thousand_random_patterns_all_member():
    rng = random.Random(31)
    sset = random_signature_set(rng, 1000)
    matcher = SignatureMatcher.program(sset, PARAMS)
    for sig in sset.signatures:
        filt = matcher.filters[len(sig.pattern)]
        assert filt.check_many(row_array([sig.pattern]))[0]


def test_images_reload_gives_identical_scans():
    rng = random.Random(32)
    sset = random_signature_set(rng, 120)
    matcher = SignatureMatcher.program(sset, PARAMS)
    reloaded = SignatureMatcher.from_images(sset, matcher.filter_images())
    assert reloaded.seeds == matcher.seeds == (77, 78)
    assert {n: f.params for n, f in reloaded.filters.items()} == \
        {n: f.params for n, f in matcher.filters.items()}
    corpus = [rng.randbytes(rng.randint(0, 200)) for _ in range(100)]
    corpus += [b"zz" + sset.signatures[0].pattern + b"zz"]
    scanned = scan_each(reloaded, corpus)
    assert scanned == scan_each(matcher, corpus)
    assert [as_windows(c) for c in scanned] == \
        [reference_candidates(reloaded.filters, p) for p in corpus]


def test_matcher_needs_at_least_one_filter():
    sset = random_signature_set(random.Random(34), 5, lengths=[4])
    with pytest.raises(ValueError, match="at least one filter"):
        SignatureMatcher(sset, {})


def test_from_images_validates_consistency():
    rng = random.Random(33)
    sset = random_signature_set(rng, 40, lengths=[4, 8])
    matcher = SignatureMatcher.program(sset, PARAMS)
    images = matcher.filter_images()

    with pytest.raises(ValueError, match="lengths"):
        SignatureMatcher.from_images(sset, {4: images[4]})

    # other m and k under the same seeds: one card, each filter its own shape
    other = SignatureMatcher.program(sset, BloomParams(m=8191, k=2,
                                                       seed_a=77, seed_b=78))
    mixed = SignatureMatcher.from_images(
        sset, {4: images[4], 8: other.filter_images()[8]})
    assert (mixed.filters[4].params, mixed.filters[8].params) == (
        PARAMS, other.filters[8].params)
    assert mixed.seeds == (77, 78)

    # other seeds: refused, naming each length's seeds
    rekeyed = SignatureMatcher.program(sset, BloomParams(seed_a=1, seed_b=78))
    with pytest.raises(ValueError, match=r"share seed_a and seed_b: "
                       r"length 4 has \(77, 78\), length 8 has \(1, 78\)"):
        SignatureMatcher.from_images(
            sset, {4: images[4], 8: rekeyed.filter_images()[8]})

    smaller = SignatureSet(sset.signatures[:20])
    if sorted(smaller.by_length()) == [4, 8]:
        with pytest.raises(ValueError, match="programmed with"):
            SignatureMatcher.from_images(smaller, images)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_images_of_different_m_and_k_scan_as_one_card(data):
    # each length's image has its own m (mostly not a power of two) and k
    # (1 included), all under one pair of seeds
    seed = data.draw(st.integers(0, 2**32), label="seed")
    rng = random.Random(seed)
    lengths = data.draw(st.lists(st.integers(2, 12), min_size=1, max_size=4,
                                 unique=True), label="lengths")
    sset = random_signature_set(rng, data.draw(st.integers(1, 40)), lengths)
    images = {}
    for length in sset.by_length():
        params = BloomParams(m=data.draw(st.integers(8, 3000), label="m"),
                             k=data.draw(st.integers(1, 5), label="k"),
                             seed_a=77, seed_b=78)
        group = [s for s in sset.signatures if len(s.pattern) == length]
        single = SignatureMatcher.program(SignatureSet(group), params)
        images[length] = single.filter_images()[length]
    matcher = SignatureMatcher.from_images(sset, images)
    assert matcher.seeds == (77, 78)

    payloads = [rng.randbytes(rng.randint(0, 60)) for _ in range(12)]
    payloads += [b"ab" + s.pattern + b"cd" for s in sset.signatures[:4]]
    assert [as_windows(c) for c in scan_each(matcher, payloads)] == \
        [reference_candidates(matcher.filters, p) for p in payloads]
    trace, _ = generate_trace(TrafficSpec(
        packet_count=60, attack_fraction=0.25, payload_len_range=(0, 120),
        seed=seed, signatures=sset))
    assert compare_baseline(matcher, trace).stats.equivalent


def test_from_images_refuses_stale_images():
    built = load_rules(b"a,ascii,cmd.exe\nb,ascii,GET /x\n")
    images = SignatureMatcher.program(built, PARAMS).filter_images()
    edited = load_rules(b"a,ascii,cmd.com\nb,ascii,GET /x\n")
    with pytest.raises(ValueError, match="stale") as exc:
        SignatureMatcher.from_images(edited, images)
    assert str(exc.value).endswith("pattern of a")
    assert SignatureMatcher.from_images(built, images).lengths == [6, 7]


# --- scanning ---------------------------------------------------------------

def test_scan_payload_shorter_than_min_length():
    rules = SignatureSet([Signature("g", b"GETX")])
    matcher = SignatureMatcher.program(rules, PARAMS)
    assert scan_one(matcher, b"abc") == []
    assert scan_one(matcher, b"") == []
    # the batch is shorter than the longest length, not the shortest
    rules = SignatureSet([Signature("g", b"GET"), Signature("l", b"0123456789ab")])
    matcher = SignatureMatcher.program(rules, PARAMS)
    assert CandidateMatch(offset=2, length=3) in scan_one(matcher, b"xxGETxx")
    assert as_tuples(exact_one(matcher, b"xxGETxx")) == \
        [(2, 3, "g")]


def test_scan_finds_contained_pattern():
    matcher = SignatureMatcher.program(SignatureSet([Signature("g", b"GET")]),
                                       PARAMS)
    candidates = scan_one(matcher, b"xxGETxx")
    assert CandidateMatch(offset=2, length=3) in candidates
    assert all(c.signature_id is None for c in candidates)
    assert candidates == sorted(candidates, key=lambda c: (c.offset, c.length))
    assert candidates == scan_one(matcher, b"xxGETxx")  # deterministic


def test_scan_candidate_rate_tracks_theory():
    # windows over pattern-free payloads answer "member" at ~ the closed form
    rng = random.Random(35)
    n = 500
    sset = random_signature_set(rng, n, lengths=[8])
    matcher = SignatureMatcher.program(sset, PARAMS)
    payloads = [rng.randbytes(503) for _ in range(300)]
    payloads = [p for p, hit in
                zip(payloads,
                    ExactScanner(sset).contains_any_batch(Payloads.of(payloads)))
                if not hit]
    windows = sum(len(p) - 8 + 1 for p in payloads)
    candidates = sum(len(c) for c in scan_each(matcher, payloads))
    theory = fpr_theoretical(PARAMS.m, PARAMS.k, n).fpr
    sigma = (theory * (1 - theory) / windows) ** 0.5
    assert abs(candidates / windows - theory) <= 4 * sigma


def test_verify_keeps_only_true_windows():
    rules = SignatureSet([Signature("g", b"GET")])
    matcher = SignatureMatcher.program(rules, PARAMS)
    payload = b"xxGETxx"
    verified = matcher.verify(payload, scan_one(matcher, payload))
    assert as_tuples(verified) == [(2, 3, "g")]
    # a non-matching candidate is dropped
    assert matcher.verify(payload, [CandidateMatch(0, 3)]) == []


def test_verify_bounds_check():
    matcher = SignatureMatcher.program(SignatureSet([Signature("g", b"GET")]),
                                       PARAMS)
    with pytest.raises(ValueError, match="outside"):
        matcher.verify(b"tiny", [CandidateMatch(3, 3)])
    with pytest.raises(ValueError, match="outside"):
        matcher.verify(b"tiny", [CandidateMatch(-1, 3)])


def test_verify_expands_duplicate_patterns_to_all_ids():
    rules = load_rules(b"a,ascii,attack\na2,ascii,attack\n")
    matcher = SignatureMatcher.program(rules, PARAMS)
    payload = b"--attack--"
    verified = matcher.verify(payload, scan_one(matcher, payload))
    assert as_tuples(verified) == [(2, 6, "a"), (2, 6, "a2")]
    assert as_tuples(exact_one(matcher, payload)) == \
        [(2, 6, "a"), (2, 6, "a2")]


def test_scan_verify_equals_naive_oracle_on_random_pairs():
    rng = random.Random(36)
    for _ in range(100):
        sset = random_signature_set(rng, rng.randint(1, 40))
        matcher = SignatureMatcher.program(sset, PARAMS)
        payload = bytearray(rng.randbytes(rng.randint(0, 300)))
        # embed some patterns to guarantee true positives
        for _ in range(rng.randint(0, 3)):
            sig = rng.choice(sset.signatures)
            if len(payload) >= len(sig.pattern):
                off = rng.randint(0, len(payload) - len(sig.pattern))
                payload[off : off + len(sig.pattern)] = sig.pattern
        payload = bytes(payload)
        expected = naive_exact_matches(sset.signatures, payload)
        assert as_tuples(matcher.verify(payload, scan_one(matcher, payload))) == expected
        assert as_tuples(exact_one(matcher, payload)) == expected


def test_exact_route_with_no_rules_finds_nothing():
    scanner = ExactScanner(SignatureSet([]))
    batch = Payloads.of([b"abc", b""])
    assert scanner.matches_batch(batch) == {}
    assert scanner.contains_any_batch(batch).tolist() == [False, False]


# the exact route's table only picks which windows are compared byte for
# byte, so its matches must not depend on the seed its windows fold with
@pytest.mark.parametrize("seed", [signatures._EXACT_SEED, DEFAULT_SEED_A,
                                  DEFAULT_SEED_B])
def test_exact_batch_equals_oracle(monkeypatch, seed):
    monkeypatch.setattr(signatures, "_EXACT_SEED", seed)
    rng = random.Random(37)
    sset = random_signature_set(rng, 60)
    scanner = ExactScanner(sset)
    payloads = []
    for _ in range(120):
        p = bytearray(rng.randbytes(rng.randint(0, 150)))
        if rng.random() < 0.5 and len(p) >= 20:
            sig = rng.choice(sset.signatures)
            p[3 : 3 + len(sig.pattern)] = sig.pattern
        payloads.append(bytes(p))
    batch = per_payload(scanner.matches_batch(Payloads.of(payloads)),
                        len(payloads))
    for payload, got in zip(payloads, batch):
        assert as_tuples(got) == naive_exact_matches(sset.signatures, payload)


# the dense filter sets enough bits that a window with k-1 of its k probe
# bits set is common, so a scan that skips a probe round shows up; odd-m
# reduces probes modulo m, not with the power-of-two mask
@pytest.mark.parametrize("params", [
    PARAMS, DENSE, BloomParams(m=1001, k=3, seed_a=77, seed_b=78), SINGLE_PROBE],
    ids=["sparse", "dense", "odd-m", "k1"])
def test_scan_batch_equals_reference_candidates(params):
    rng = random.Random(38)
    sset = random_signature_set(rng, 200)
    matcher = SignatureMatcher.program(sset, params)
    payloads = [rng.randbytes(rng.randint(0, 180)) for _ in range(150)]
    sigs = sset.signatures
    payloads += [b"x" * 5 + s.pattern + b"y" * 3 for s in sigs[:10]]
    batch = scan_each(matcher, payloads)
    assert all(c.signature_id is None for cands in batch for c in cands)
    assert [as_windows(c) for c in batch] == \
        [reference_candidates(matcher.filters, p) for p in payloads]


def test_scan_batch_windows_never_cross_payloads():
    # pattern split across two adjacent payloads must not match
    sset = SignatureSet([Signature("s", b"ABCDEF")])
    matcher = SignatureMatcher.program(sset, PARAMS)
    assert scan_each(matcher, [b"xxABC", b"DEFyy"]) == [[], []]
    # both routes, with empty payloads first, in the middle and last
    payloads = [b"", b"xxABC", b"", b"DEFyy", b"ABCDEF", b""]
    expected = [[]] * 4 + [[CandidateMatch(0, 6)], []]
    assert scan_each(matcher, payloads) == expected
    assert matcher.exact_matches_batch(Payloads.of(payloads)) == {
        4: [CandidateMatch(0, 6, "s")]}


def test_programmed_matcher_supports_concurrent_scans():
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(39)
    sset = random_signature_set(rng, 100)
    matcher = SignatureMatcher.program(sset, PARAMS)
    payloads = [rng.randbytes(200) for _ in range(40)]
    payloads += [b"pad" + s.pattern for s in sset.signatures[:5]]
    expected = scan_each(matcher, payloads)
    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(3):
            results = list(pool.map(lambda p: scan_one(matcher, p), payloads))
            assert results == expected


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_scan_completeness_property(data):
    # every embedded pattern occurrence yields a candidate and survives verify
    patterns = data.draw(st.lists(
        st.binary(min_size=2, max_size=8), min_size=1, max_size=5,
        unique=True))
    sset = SignatureSet([Signature(f"p{i}", pat)
                         for i, pat in enumerate(patterns)])
    matcher = SignatureMatcher.program(sset, PARAMS)
    body = bytearray(data.draw(st.binary(min_size=0, max_size=60)))
    chosen = data.draw(st.sampled_from(sset.signatures))
    offset = data.draw(st.integers(0, len(body)))
    payload = bytes(body[:offset] + chosen.pattern + body[offset:])

    candidates = scan_one(matcher, payload)
    assert CandidateMatch(offset, len(chosen.pattern)) in candidates
    verified = matcher.verify(payload, candidates)
    assert (offset, len(chosen.pattern), chosen.id) in as_tuples(verified)
    assert as_tuples(verified) == naive_exact_matches(sset.signatures, payload)


# tiny groups and slices, so a few short payloads cross many of their
# edges; a group also ends after EDGE_SLICE_WINDOWS payloads
EDGE_GROUP_BYTES, EDGE_SLICE_WINDOWS = 64, 16
EDGE_RULES = random_signature_set(random.Random(40), 240, lengths=[3, 9, 20])


def shared_prefix_rules(rng, stems):
    """2-byte patterns, each also the first two bytes of longer patterns."""
    patterns = []
    for _ in range(stems):
        stem = rng.randbytes(2)
        patterns += [stem] + [stem + rng.randbytes(n - 2) for n in (3, 5, 9, 20)]
    return SignatureSet([Signature(f"p{i}", pattern) for i, pattern
                         in enumerate(dict.fromkeys(patterns))])


EDGE_PREFIX_RULES = shared_prefix_rules(random.Random(43), 12)
EDGE_MATCHERS = {prefix + name: SignatureMatcher.program(rules, params)
                 for prefix, rules in (("", EDGE_RULES),
                                       ("prefixes-", EDGE_PREFIX_RULES))
                 for name, params in (("sparse", PARAMS), ("dense", DENSE),
                                      ("k1", SINGLE_PROBE))}


@pytest.mark.parametrize("name", list(EDGE_MATCHERS))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_scans_agree_with_oracles_across_group_and_slice_edges(name, data):
    matcher = EDGE_MATCHERS[name]
    sigs = matcher.signature_set.signatures
    embedded = st.builds(lambda pre, sig, post: pre + sig.pattern + post,
                         st.binary(max_size=20), st.sampled_from(sigs),
                         st.binary(max_size=20))
    payloads = data.draw(st.lists(
        st.one_of(st.just(b""), st.binary(max_size=40), embedded), max_size=24))
    # the first payload opens the first group, so a pattern placed
    # ``cut`` bytes before SLICE_WINDOWS straddles the first slice edge
    sig = data.draw(st.sampled_from(sigs))
    cut = data.draw(st.integers(1, min(len(sig.pattern) - 1,
                                       EDGE_SLICE_WINDOWS)))
    straddler = bytes(EDGE_SLICE_WINDOWS - cut) + sig.pattern
    # longer than a group: a group of its own
    long_body = data.draw(st.binary(min_size=EDGE_GROUP_BYTES + 1,
                                    max_size=2 * EDGE_GROUP_BYTES))
    long_payload = long_body[:30] + data.draw(embedded) + long_body[30:]
    for extra in (b"", long_payload, b""):
        payloads.insert(data.draw(st.integers(0, len(payloads))), extra)
    payloads.insert(0, straddler)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signatures, "GROUP_BYTES", EDGE_GROUP_BYTES)
        mp.setattr(signatures, "SLICE_WINDOWS", EDGE_SLICE_WINDOWS)
        scanned = scan_each(matcher, payloads)
        exact = per_payload(matcher.exact_matches_batch(Payloads.of(payloads)),
                            len(payloads))
    assert [as_windows(c) for c in scanned] == \
        [reference_candidates(matcher.filters, p) for p in payloads]
    assert [as_tuples(m) for m in exact] == \
        [naive_exact_matches(sigs, p) for p in payloads]
    assert (EDGE_SLICE_WINDOWS - cut, len(sig.pattern), sig.id) in \
        as_tuples(exact[0])


def test_two_byte_pattern_at_payload_group_and_slice_ends(monkeypatch):
    monkeypatch.setattr(signatures, "GROUP_BYTES", EDGE_GROUP_BYTES)
    monkeypatch.setattr(signatures, "SLICE_WINDOWS", EDGE_SLICE_WINDOWS)
    sset = SignatureSet([Signature("ab", b"AB"), Signature("long", b"ABCDE")])
    matcher = SignatureMatcher.program(sset, PARAMS)
    payloads = [
        b"-" * 8 + b"AB",  # block bytes 0..9: the payload's last two bytes
        b"-" * 5 + b"AB" + b"-" * 23,  # 10..39: across the slice edge at 16
        b"-" * 22 + b"AB",  # 40..63: the last two bytes of the 64-byte group
        b"-" * 9 + b"A", b"B" + b"-" * 9,  # split over two payloads: no match
    ]
    assert [len(p) for p in payloads[:3]] == [10, 30, 24]
    expected = {0: [(8, 2, "ab")], 1: [(5, 2, "ab")], 2: [(22, 2, "ab")]}
    exact = matcher.exact_matches_batch(Payloads.of(payloads))
    assert {i: as_tuples(m) for i, m in exact.items()} == expected
    scanned = scan_each(matcher, payloads)
    assert [as_windows(c) for c in scanned] == \
        [reference_candidates(matcher.filters, p) for p in payloads]
    verified = {i: as_tuples(matcher.verify(p, c))
                for i, (p, c) in enumerate(zip(payloads, scanned))}
    assert {i: v for i, v in verified.items() if v} == expected


def test_exact_tables_do_not_grow_with_the_lengths():
    # 10 lengths x 200 patterns: one 1 MiB table per length took 10.2 MiB
    rng = random.Random(73)
    sset = SignatureSet([Signature(f"L{n}-{i}", rng.randbytes(n))
                         for n in range(6, 16) for i in range(200)])
    tracemalloc.start()
    try:
        ExactScanner(sset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20, f"ExactScanner peaked at {peak / 2**20:.2f} MiB"


def test_exact_scan_confirms_no_more_windows_than_per_length_tables(monkeypatch):
    # the windows the exact route hands to the byte comparison on a fixed
    # batch with 10 lengths: 647 when each length had its own 1 MiB table
    rng = random.Random(72)
    sset = random_signature_set(rng, 2000, lengths=list(range(6, 16)))
    payloads = []
    for _ in range(400):
        p = bytearray(rng.randbytes(rng.randint(0, 1500)))
        if rng.random() < 0.25 and len(p) >= 20:
            sig = rng.choice(sset.signatures)
            off = rng.randint(0, len(p) - len(sig.pattern))
            p[off : off + len(sig.pattern)] = sig.pattern
        payloads.append(bytes(p))
    scanner = ExactScanner(sset)
    handed = []
    confirm = ExactScanner.confirm

    def counting(self, payload, candidates):
        handed.append(len(candidates))
        return confirm(self, payload, candidates)

    monkeypatch.setattr(ExactScanner, "confirm", counting)
    found = scanner.matches_batch(Payloads.of(payloads))
    assert sum(len(m) for m in found.values()) == 103
    assert sum(handed) <= 647


def test_payloads_gather_joins_payloads_as_payloads_of():
    # a capture's payloads: header bytes between them, empty payloads
    # first, in the middle and last, and one longer than a scan group
    rng = random.Random(44)
    addrs = (b"\x02" * 6, b"\x04" * 6, b"\x0a\0\0\x01", b"\x0a\0\0\x02", 1, 2)
    ack = RawFrame(build_tcp_frame(*addrs, b""))
    # an unknown ethertype: the payload is all that follows the link header
    long = RawFrame(b"\x02" * 12 + b"\x88\xb5"
                    + rng.randbytes(signatures.GROUP_BYTES + 100))
    def data(size):
        return RawFrame(build_tcp_frame(*addrs, rng.randbytes(size)))

    trace = reference_trace([ack, ack, data(1), ack, long, ack, data(300),
                             data(7), data(40), ack])
    start, end, unparseable = parse_payloads(trace)
    assert not unparseable.any()
    payloads = Payloads(np.frombuffer(trace.buf, dtype=np.uint8), start, end)
    assert (end - start).max() > signatures.GROUP_BYTES
    n = len(payloads)
    at = np.empty(signatures.SLICE_WINDOWS, dtype=np.int64)
    for first in range(n + 1):
        for stop in range(first, n + 1):
            group = payloads.gather(first, stop, at)
            expected = Payloads.of([payloads[i] for i in range(first, stop)])
            assert np.array_equal(group.buf, expected.buf)
            assert np.array_equal(group.starts, expected.starts)
            assert np.array_equal(group.ends, expected.ends)
            pos = np.arange(group.buf.size)
            owner = group.ends.searchsorted(pos, side="right")
            assert (group.starts[owner] <= pos).all()
            assert (pos < group.ends[owner]).all()


@given(sizes=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 9)),
                      max_size=30),
       slice_windows=st.integers(1, 40), data=st.data())
@settings(max_examples=200, deadline=None)
def test_payloads_gather_builds_its_index_one_slice_at_a_time(
        sizes, slice_windows, data):
    # payload lengths, zeros included, each after a gap that is not
    # payload; slices short enough that payloads and gaps cross them
    lengths = np.array([length for length, _ in sizes], dtype=np.int64)
    ends = np.cumsum([length + gap for length, gap in sizes], dtype=np.int64)
    rng = random.Random(int(lengths.sum()))
    buf = np.frombuffer(rng.randbytes(int(ends[-1]) if sizes else 0),
                        dtype=np.uint8)
    payloads = Payloads(buf, ends - lengths, ends)
    first = data.draw(st.integers(0, len(sizes)))
    stop = data.draw(st.integers(first, len(sizes)))
    expected = Payloads.of([payloads[i] for i in range(first, stop)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(signatures, "SLICE_WINDOWS", slice_windows)
        # a group shorter than a slice needs an index of its size only
        need = min(slice_windows, expected.buf.size)
        at = np.full(slice_windows, -1, dtype=np.int64)
        for group in (payloads.gather(first, stop, at),
                      payloads.gather(first, stop, at[:need])):
            assert np.array_equal(group.buf, expected.buf)
            assert np.array_equal(group.starts, expected.starts)
            assert np.array_equal(group.ends, expected.ends)
        if need:
            with pytest.raises(ValueError,
                               match=f"cannot hold a slice of {need} bytes"):
                payloads.gather(first, stop, at[: need - 1])


@given(sizes=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 5)),
                      max_size=60),
       max_payloads=st.integers(1, 8), max_bytes=st.integers(0, 100))
@settings(max_examples=300, deadline=None)
def test_payload_blocks_are_maximal_runs_within_the_bounds(sizes, max_payloads,
                                                           max_bytes):
    # payload lengths, zeros included, each after a gap that is not
    # payload and so counts toward no bound
    lengths = [length for length, _ in sizes]
    ends = np.cumsum([length + gap for length, gap in sizes], dtype=np.int64)
    payloads = Payloads(np.zeros(int(ends[-1]) if sizes else 0, dtype=np.uint8),
                        ends - lengths, ends)
    # a cut that failed to advance would yield forever: take one run more
    runs = list(itertools.islice(payloads.blocks(max_payloads, max_bytes),
                                 len(lengths) + 1))
    bounds = [0] + [stop for _, stop in runs]
    assert [first for first, _ in runs] == bounds[:-1]  # in order, no gap
    assert bounds[-1] == len(lengths)
    for first, stop in runs:
        size = sum(lengths[first:stop])
        assert 1 <= stop - first <= max_payloads
        assert size <= max_bytes or stop - first == 1
        if stop < len(lengths):  # the next payload would break a bound
            assert (stop - first == max_payloads
                    or size + lengths[stop] > max_bytes)


def test_scan_memory_does_not_grow_with_the_batch():
    rng = random.Random(41)
    sset = random_signature_set(rng, 60, lengths=[7, 12, 15])
    matcher = SignatureMatcher.program(sset, PARAMS)
    payloads, total = [], 0
    while total < 8 << 20:
        payloads.append(rng.randbytes(rng.randint(200, 1400)))
        total += len(payloads[-1])
    payloads = Payloads.of(payloads)  # the batch's own buffer is not the scan's
    for scan in (matcher.scan_batch, matcher.exact_matches_batch):
        tracemalloc.start()
        try:
            scan(payloads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, f"{scan.__name__} peaked at {peak >> 20} MiB"


def test_scan_memory_does_not_grow_with_gaps_between_payloads():
    # payloads as a capture holds them: header bytes between them, empty
    # payloads (bare ACKs) and large unparseable frames, which add source
    # bytes but no payload bytes
    rng = random.Random(42)
    sset = random_signature_set(rng, 60, lengths=[7, 12, 15])
    matcher = SignatureMatcher.program(sset, PARAMS)
    addrs = (b"\x02" * 6, b"\x04" * 6, b"\x0a\0\0\x01", b"\x0a\0\0\x02", 1, 2)
    ack = RawFrame(build_tcp_frame(*addrs, b""))
    data = RawFrame(build_tcp_frame(*addrs, rng.randbytes(600)))
    jumbo = bytearray(build_tcp_frame(*addrs, bytes(60 * 1024)))
    jumbo[20] |= 0x20  # more fragments: an IPv4 fragment is not parseable
    jumbo = RawFrame(bytes(jumbo))
    frames = ([ack] * 150 + [jumbo, data]) * 400
    trace = reference_trace(frames)
    start, end, unparseable = parse_payloads(trace)
    assert unparseable.sum() == 400 and (end > start).sum() == 400
    payloads = Payloads(np.frombuffer(trace.buf, dtype=np.uint8), start, end)
    for scan in (matcher.scan_batch, matcher.exact_matches_batch):
        tracemalloc.start()
        try:
            scan(payloads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, f"{scan.__name__} peaked at {peak >> 20} MiB"


def test_scan_memory_of_many_lengths_stays_within_a_slice():
    # the many-len-hostile shape: 10 lengths, 2,000 patterns, payloads up
    # to the MTU. Holding a group's first-probe survivors and a group-sized
    # gather index took 4.7 MiB in scan_batch, and a bool slot table 4.0
    # MiB in exact_matches_batch
    rng = random.Random(74)
    sset = random_signature_set(rng, 2000, lengths=list(range(6, 16)))
    matcher = SignatureMatcher.program(sset, PARAMS)
    payloads, total = [], 0
    while total < 8 << 20:
        payloads.append(rng.randbytes(rng.randint(200, 1400)))
        total += len(payloads[-1])
    payloads = Payloads.of(payloads)
    for scan, bound in ((matcher.scan_batch, 2.5),
                        (matcher.exact_matches_batch, 2.0)):
        tracemalloc.start()
        try:
            scan(payloads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20, \
            f"{scan.__name__} peaked at {peak / 2**20:.2f} MiB"
