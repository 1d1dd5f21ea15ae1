import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicsieve.bloom import BloomParams, fpr_theoretical
from nicsieve.signatures import (
    CandidateMatch,
    ExactScanner,
    RuleParseError,
    Signature,
    SignatureMatcher,
    SignatureSet,
    load_rules,
)

from conftest import (
    naive_exact_matches,
    random_signature_set,
    reference_candidates,
)

PARAMS = BloomParams(m=16384, k=4, seed_a=77, seed_b=78)


def as_tuples(matches):
    return [(m.offset, m.length, m.signature_id) for m in matches]


def as_windows(candidates):
    return [(c.offset, c.length) for c in candidates]


def scan_one(matcher, payload):
    return matcher.scan_batch([payload])[0]


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


def test_signature_set_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        SignatureSet(signatures=[Signature("a", b"xx"), Signature("a", b"yy")])


# --- programming ------------------------------------------------------------

def test_program_groups_by_length():
    rules = SignatureSet([Signature("g", b"GET"), Signature("e", b"EVIL")])
    matcher = SignatureMatcher.program(rules, PARAMS)
    assert matcher.lengths == [3, 4]
    assert matcher.filters[3].count_programmed == 1
    assert matcher.filters[4].count_programmed == 1


def test_program_rejects_empty_set():
    with pytest.raises(ValueError, match="empty"):
        SignatureMatcher.program(SignatureSet(signatures=[]), PARAMS)


def test_program_thousand_random_patterns_all_member():
    rng = random.Random(31)
    sset = random_signature_set(rng, 1000)
    matcher = SignatureMatcher.program(sset, PARAMS)
    for sig in sset.signatures:
        assert matcher.filters[len(sig.pattern)].check(sig.pattern)


def test_images_reload_gives_identical_scans():
    rng = random.Random(32)
    sset = random_signature_set(rng, 120)
    matcher = SignatureMatcher.program(sset, PARAMS)
    reloaded = SignatureMatcher.from_images(sset, matcher.filter_images())
    assert reloaded.params == matcher.params
    corpus = [rng.randbytes(rng.randint(0, 200)) for _ in range(100)]
    corpus += [b"zz" + sset.signatures[0].pattern + b"zz"]
    assert reloaded.scan_batch(corpus) == matcher.scan_batch(corpus)
    assert [as_windows(c) for c in reloaded.scan_batch(corpus)] == \
        [reference_candidates(reloaded.filters, p) for p in corpus]


def test_from_images_validates_consistency():
    rng = random.Random(33)
    sset = random_signature_set(rng, 40, lengths=[4, 8])
    matcher = SignatureMatcher.program(sset, PARAMS)
    images = matcher.filter_images()

    with pytest.raises(ValueError, match="lengths"):
        SignatureMatcher.from_images(sset, {4: images[4]})

    other = SignatureMatcher.program(sset, BloomParams(m=8192, k=2,
                                                       seed_a=1, seed_b=2))
    mixed = {4: images[4], 8: other.filter_images()[8]}
    with pytest.raises(ValueError, match="inconsistent"):
        SignatureMatcher.from_images(sset, mixed)

    smaller = SignatureSet(sset.signatures[:20])
    if sorted(smaller.by_length()) == [4, 8]:
        with pytest.raises(ValueError, match="programmed with"):
            SignatureMatcher.from_images(smaller, images)


# --- scanning ---------------------------------------------------------------

def test_scan_payload_shorter_than_min_length():
    rules = SignatureSet([Signature("g", b"GETX")])
    matcher = SignatureMatcher.program(rules, PARAMS)
    assert scan_one(matcher, b"abc") == []
    assert scan_one(matcher, b"") == []


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
                zip(payloads, ExactScanner(sset).contains_any_batch(payloads))
                if not hit]
    windows = sum(len(p) - 8 + 1 for p in payloads)
    candidates = sum(len(c) for c in matcher.scan_batch(payloads))
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
    assert as_tuples(matcher.exact_matches_batch([payload])[0]) == \
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
        assert as_tuples(matcher.exact_matches_batch([payload])[0]) == expected


def test_exact_batch_equals_oracle():
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
    batch = scanner.matches_batch(payloads)
    for payload, got in zip(payloads, batch):
        assert as_tuples(got) == naive_exact_matches(sset.signatures, payload)


def test_scan_batch_equals_reference_candidates():
    rng = random.Random(38)
    sset = random_signature_set(rng, 200)
    matcher = SignatureMatcher.program(sset, PARAMS)
    payloads = [rng.randbytes(rng.randint(0, 180)) for _ in range(150)]
    sigs = sset.signatures
    payloads += [b"x" * 5 + s.pattern + b"y" * 3 for s in sigs[:10]]
    batch = matcher.scan_batch(payloads)
    assert all(c.signature_id is None for cands in batch for c in cands)
    assert [as_windows(c) for c in batch] == \
        [reference_candidates(matcher.filters, p) for p in payloads]


def test_scan_batch_windows_never_cross_payloads():
    # pattern split across two adjacent payloads must not match
    sset = SignatureSet([Signature("s", b"ABCDEF")])
    matcher = SignatureMatcher.program(sset, PARAMS)
    results = matcher.scan_batch([b"xxABC", b"DEFyy"])
    assert results == [[], []]


def test_programmed_matcher_supports_concurrent_scans():
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(39)
    sset = random_signature_set(rng, 100)
    matcher = SignatureMatcher.program(sset, PARAMS)
    payloads = [rng.randbytes(200) for _ in range(40)]
    payloads += [b"pad" + s.pattern for s in sset.signatures[:5]]
    expected = matcher.scan_batch(payloads)
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
