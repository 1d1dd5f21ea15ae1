import csv

import pytest

from nicsieve import cli
from nicsieve.bloom import BloomFilter
from nicsieve.cli import main
from nicsieve.codec import NSEC, USEC, RawFrame, read_pcap, write_pcap
from nicsieve.signatures import load_rules
from nicsieve.traffic import TrafficSpec, generate_trace

from conftest import reference_capture, row_array

RULES = b"""# demo rules
web1,ascii,GET /etc/passwd
hex1,hex,deadbeefcafe
web2,ascii,cmd.exe
"""


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_bytes(RULES)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def attack_rows(manifest_path):
    """The attack rows of a manifest file, read with the csv module."""
    with open(manifest_path, newline="") as f:
        return sum(row["is_attack"] == "1" for row in csv.DictReader(f))


# --- build ------------------------------------------------------------------

def test_build_writes_images_and_index(tmp_path, rules_file, capsys):
    out = tmp_path / "filters"
    assert run("build", "--rules", rules_file, "--out", out) == 0
    index = (out / "index.txt").read_text().splitlines()
    assert index == ["6,len6.bfi", "7,len7.bfi", "15,len15.bfi"]
    for line in index:
        length, name = line.split(",")
        filt = BloomFilter.from_image((out / name).read_bytes())
        assert filt.params.m == 16384 and filt.params.k == 4
    printed = capsys.readouterr().out
    assert "3 signatures" in printed and "length 6" in printed


def test_build_deterministic_rebuild(tmp_path, rules_file):
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    assert run("build", "--rules", rules_file, "--out", out1) == 0
    assert run("build", "--rules", rules_file, "--out", out2) == 0
    for name in ("index.txt", "len6.bfi", "len7.bfi", "len15.bfi"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_build_bad_rules_exit_1_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"ok1,ascii,fine\noops,hex,4\n")
    assert run("build", "--rules", bad, "--out", tmp_path / "f") == 1
    assert f"{bad}: line 2" in capsys.readouterr().err


def test_build_empty_rules_exit_1(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"# no rules yet\n")
    assert run("build", "--rules", empty, "--out", tmp_path / "f") == 1
    assert f"{empty}: signature set is empty" in capsys.readouterr().err


def test_build_missing_rules_exit_2(tmp_path):
    assert run("build", "--rules", tmp_path / "nope.txt",
               "--out", tmp_path / "f") == 2


def test_build_custom_params(tmp_path, rules_file):
    out = tmp_path / "f"
    assert run("build", "--rules", rules_file, "--out", out,
               "--m", 4096, "--k", 2, "--seed-a", 5, "--seed-b", 6) == 0
    filt = BloomFilter.from_image((out / "len6.bfi").read_bytes())
    assert (filt.params.m, filt.params.k) == (4096, 2)
    assert (filt.params.seed_a, filt.params.seed_b) == (5, 6)


def test_build_invalid_params_exit_1(tmp_path, rules_file):
    assert run("build", "--rules", rules_file, "--out", tmp_path / "f",
               "--m", 4) == 1


# --- gen --------------------------------------------------------------------

def test_gen_writes_trace_and_manifest(tmp_path, rules_file):
    trace_path = tmp_path / "t.pcap"
    manifest_path = tmp_path / "m.csv"
    assert run("gen", "--count", 1000, "--attack-fraction", 0.05,
               "--rules", rules_file, "--seed", 7,
               "--out", trace_path, "--manifest", manifest_path) == 0
    trace = read_pcap(trace_path.read_bytes())
    assert len(trace) == 1000
    assert attack_rows(manifest_path) == 50
    # the generated trace's buffer is written as it is: the same file
    # that encoding the trace writes
    spec = TrafficSpec(packet_count=1000, attack_fraction=0.05, seed=7,
                       signatures=load_rules(RULES))
    generated, truth = generate_trace(spec)
    assert trace_path.read_bytes() == write_pcap(generated)
    assert manifest_path.read_bytes() == truth.to_csv()


def test_gen_zero_count_writes_a_header_only_capture(tmp_path):
    assert run("gen", "--count", 0, "--out", tmp_path / "t.pcap",
               "--manifest", tmp_path / "m.csv") == 0
    data = (tmp_path / "t.pcap").read_bytes()
    assert len(data) == 24
    assert len(read_pcap(data)) == 0
    assert (tmp_path / "m.csv").read_bytes() == (
        b"index,is_attack,signature_id,embed_offset\n")


def test_gen_requires_rules_for_attacks(tmp_path):
    assert run("gen", "--count", 100, "--attack-fraction", 0.2,
               "--out", tmp_path / "t.pcap",
               "--manifest", tmp_path / "m.csv") == 1


def test_gen_attacks_from_an_empty_rule_file_name_it(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"# no rules yet\n")
    argv = ("gen", "--count", 20, "--rules", empty, "--out", tmp_path / "t.pcap",
            "--manifest", tmp_path / "m.csv")
    assert run(*argv, "--attack-fraction", 0.5) == 1
    assert f"{empty}: attack packets requested" in capsys.readouterr().err
    assert run(*argv) == 0  # background only: no signature needed


def test_gen_deterministic(tmp_path, rules_file):
    args = ("gen", "--count", 500, "--attack-fraction", 0.1,
            "--rules", rules_file, "--seed", 42,
            "--payload-min", 30, "--payload-max", 90)
    assert run(*args, "--out", tmp_path / "a.pcap",
               "--manifest", tmp_path / "a.csv") == 0
    assert run(*args, "--out", tmp_path / "b.pcap",
               "--manifest", tmp_path / "b.csv") == 0
    assert (tmp_path / "a.pcap").read_bytes() == (tmp_path / "b.pcap").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("flags, spec", [
    ((), TrafficSpec(packet_count=300)),
    (("--rules", "rules.txt"),
     TrafficSpec(packet_count=300, signatures=load_rules(RULES))),
    (("--rules", "rules.txt", "--attack-fraction", 0.1, "--seed", 5),
     TrafficSpec(packet_count=300, attack_fraction=0.1, seed=5,
                 signatures=load_rules(RULES))),
], ids=["no-flags", "rules-only", "no-payload-flags"])
def test_gen_defaults_are_the_spec_defaults(tmp_path, rules_file, monkeypatch,
                                            flags, spec):
    monkeypatch.chdir(tmp_path)  # where rules_file wrote rules.txt
    assert run("gen", "--count", 300, *flags, "--out", tmp_path / "t.pcap",
               "--manifest", tmp_path / "m.csv") == 0
    trace, manifest = generate_trace(spec)
    assert (tmp_path / "t.pcap").read_bytes() == write_pcap(trace)
    assert (tmp_path / "m.csv").read_bytes() == manifest.to_csv()


def test_gen_invalid_spec_exit_1(tmp_path, rules_file):
    assert run("gen", "--count", 100, "--payload-min", 90,
               "--payload-max", 50, "--out", tmp_path / "t.pcap",
               "--manifest", tmp_path / "m.csv") == 1


# --- scan -------------------------------------------------------------------

@pytest.fixture
def built_and_generated(tmp_path, rules_file):
    filters = tmp_path / "filters"
    trace = tmp_path / "trace.pcap"
    manifest = tmp_path / "manifest.csv"
    assert run("build", "--rules", rules_file, "--out", filters) == 0
    assert run("gen", "--count", 2000, "--attack-fraction", 0.05,
               "--rules", rules_file, "--seed", 11, "--payload-min", 30,
               "--payload-max", 120, "--out", trace,
               "--manifest", manifest) == 0
    return filters, trace, manifest


def test_scan_end_to_end(tmp_path, rules_file, built_and_generated, capsys):
    filters, trace, manifest_path = built_and_generated
    fwd = tmp_path / "fwd.pcap"
    report = tmp_path / "report.csv"
    decisions = tmp_path / "decisions.csv"
    assert run("scan", filters / "index.txt", "--rules", rules_file,
               "--in", trace, "--out", fwd, "--report", report,
               "--decision-log", decisions) == 0

    lines = report.read_text().splitlines()
    header, values = lines[0].split(","), lines[1].split(",")
    row = dict(zip(header, values))
    assert int(row["total"]) == 2000
    assert int(row["total"]) == int(row["forwarded"]) + int(row["dropped"])
    assert int(row["true_matches"]) == attack_rows(manifest_path) == 100
    assert row["equivalent"] == "1"

    forwarded = read_pcap(fwd.read_bytes())
    assert len(forwarded) == int(row["forwarded"])

    decision_lines = decisions.read_text().splitlines()
    assert decision_lines[0].startswith("index,verdict,")
    assert len(decision_lines) == 2001

    assert "true matches 100" in capsys.readouterr().out


def test_scan_deterministic_outputs(tmp_path, rules_file, built_and_generated):
    filters, trace, _ = built_and_generated
    for tag in ("x", "y"):
        assert run("scan", filters / "index.txt", "--rules", rules_file,
                   "--in", trace, "--out", tmp_path / f"{tag}.pcap",
                   "--report", tmp_path / f"{tag}.csv") == 0
    assert (tmp_path / "x.pcap").read_bytes() == (tmp_path / "y.pcap").read_bytes()
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
    header = (tmp_path / "x.csv").read_text().splitlines()[0]
    assert header == ("total,forwarded,dropped,true_matches,"
                      "false_positive_forwards,non_parseable_forwards,"
                      "bytes_total,bytes_forwarded,reduction,equivalent")


def test_scan_index_tolerates_spaces_after_comma(tmp_path, rules_file,
                                                 built_and_generated):
    filters, trace, _ = built_and_generated
    index = filters / "index.txt"
    assert run("scan", index, "--rules", rules_file, "--in", trace,
               "--out", tmp_path / "a.pcap", "--report", tmp_path / "a.csv") == 0
    index.write_text(index.read_text().replace(",", ", "))
    assert run("scan", index, "--rules", rules_file, "--in", trace,
               "--out", tmp_path / "b.pcap", "--report", tmp_path / "b.csv") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_scan_index_tolerates_a_byte_order_mark(tmp_path, rules_file,
                                               built_and_generated):
    filters, trace, _ = built_and_generated
    index = filters / "index.txt"
    assert run("scan", index, "--rules", rules_file, "--in", trace,
               "--out", tmp_path / "a.pcap", "--report", tmp_path / "a.csv") == 0
    index.write_bytes(b"\xef\xbb\xbf" + index.read_bytes())
    assert run("scan", index, "--rules", rules_file, "--in", trace,
               "--out", tmp_path / "b.pcap", "--report", tmp_path / "b.csv") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_scan_index_lines_end_only_at_line_breaks(tmp_path, rules_file,
                                                 built_and_generated):
    # the index is UTF-8 text whose lines end at \n, \r\n or \r, as a
    # rule file's do; \x1c (a line break to str.splitlines) is a name byte
    filters, trace, _ = built_and_generated
    index = filters / "index.txt"
    assert run("scan", index, "--rules", rules_file, "--in", trace,
               "--out", tmp_path / "a.pcap", "--report", tmp_path / "a.csv") == 0
    (filters / "len6.bfi").rename(filters / "odd\x1cname.bfi")
    index.write_bytes("6,odd\x1cname.bfi\r\n7,len7.bfi\r15,len15.bfi\n"
                      .encode("utf-8"))
    assert run("scan", index, "--rules", rules_file, "--in", trace,
               "--out", tmp_path / "b.pcap", "--report", tmp_path / "b.csv") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_scan_missing_trace_exit_2(tmp_path, rules_file, built_and_generated):
    filters, _, _ = built_and_generated
    assert run("scan", filters / "index.txt", "--rules", rules_file,
               "--in", tmp_path / "missing.pcap", "--out", tmp_path / "f.pcap",
               "--report", tmp_path / "r.csv") == 2


def test_scan_keeps_nanosecond_timestamps(tmp_path, rules_file,
                                          built_and_generated):
    filters, trace_path, _ = built_and_generated
    frames = [RawFrame(f.data, f.ts_sec, f.ts_usec * 1000 + i % 1000, f.orig_len)
              for i, f in enumerate(read_pcap(trace_path.read_bytes()))]
    ns_trace = tmp_path / "ns.pcap"
    ns_trace.write_bytes(reference_capture(frames, "<", NSEC))
    fwd, decisions = tmp_path / "fwd.pcap", tmp_path / "decisions.csv"
    assert run("scan", filters / "index.txt", "--rules", rules_file,
               "--in", ns_trace, "--out", fwd, "--report", tmp_path / "r.csv",
               "--decision-log", decisions) == 0

    verdicts = [line.split(",")[1]
                for line in decisions.read_text().splitlines()[1:]]
    expected = [f for f, v in zip(frames, verdicts) if v == "FORWARD"]
    assert len(expected) >= 100  # every attack at least
    assert fwd.read_bytes()[:4] == (0xA1B23C4D).to_bytes(4, "little")
    forwarded = read_pcap(fwd.read_bytes())
    assert forwarded.ts_resolution == NSEC
    assert list(forwarded) == expected


@pytest.mark.parametrize("endian, resolution, extra_len", [
    (">", USEC, 0), ("<", NSEC, 0), ("<", USEC, 100), (">", NSEC, 7)],
    ids=["big-endian", "nanosecond", "orig-len", "big-endian-ns"])
def test_scan_forwards_capture_variants_as_little_endian(
        tmp_path, rules_file, built_and_generated, endian, resolution,
        extra_len):
    # the input capture is written by hand in the variant; the forwarded
    # capture is a little-endian file at the input's resolution holding
    # exactly the forwarded records, their orig_len and timestamps kept
    filters, trace_path, _ = built_and_generated
    scale = resolution // USEC
    records = [RawFrame(f.data, f.ts_sec, f.ts_usec * scale + i % scale,
                        len(f.data) + extra_len + i % 3 * extra_len)
               for i, f in enumerate(read_pcap(trace_path.read_bytes()))]

    source = tmp_path / "variant.pcap"
    source.write_bytes(reference_capture(records, endian, resolution))
    fwd, decisions = tmp_path / "fwd.pcap", tmp_path / "decisions.csv"
    assert run("scan", filters / "index.txt", "--rules", rules_file,
               "--in", source, "--out", fwd, "--report", tmp_path / "r.csv",
               "--decision-log", decisions) == 0

    verdicts = [line.split(",")[1]
                for line in decisions.read_text().splitlines()[1:]]
    forwarded = [r for r, v in zip(records, verdicts) if v == "FORWARD"]
    assert len(forwarded) >= 100  # every attack at least
    assert fwd.read_bytes() == reference_capture(forwarded, "<", resolution)


def test_scan_corrupt_trace_exit_1(tmp_path, rules_file, built_and_generated,
                                   capsys):
    filters, _, _ = built_and_generated
    bad = tmp_path / "bad.pcap"
    bad.write_bytes(b"this is not a capture file")
    assert run("scan", filters / "index.txt", "--rules", rules_file,
               "--in", bad, "--out", tmp_path / "f.pcap",
               "--report", tmp_path / "r.csv") == 1
    assert f"{bad}: bad magic: 0x" in capsys.readouterr().err


def test_scan_stale_rules_exit_1(tmp_path, rules_file, built_and_generated,
                                capsys):
    filters, trace, _ = built_and_generated
    other = tmp_path / "other.txt"
    other.write_bytes(b"only1,ascii,zzzz\n")
    assert run("scan", filters / "index.txt", "--rules", other,
               "--in", trace, "--out", tmp_path / "f.pcap",
               "--report", tmp_path / "r.csv") == 1
    assert (f"{filters / 'index.txt'} with {other}: image lengths [6, 7, 15] "
            "do not match rule lengths [4]") in capsys.readouterr().err


def test_scan_empty_rules_names_rules_and_index(tmp_path, built_and_generated,
                                                capsys):
    filters, trace, _ = built_and_generated
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"# no rules yet\n")
    assert run("scan", filters / "index.txt", "--rules", empty,
               "--in", trace, "--out", tmp_path / "f.pcap",
               "--report", tmp_path / "r.csv") == 1
    assert (f"{filters / 'index.txt'} with {empty}: signature set is empty"
            in capsys.readouterr().err)


def test_scan_images_of_different_m_and_k_share_one_card(
        tmp_path, rules_file, built_and_generated):
    # each image carries its own m and k; only the seeds must agree
    filters, trace, _ = built_and_generated
    other = tmp_path / "other"
    assert run("build", "--rules", rules_file, "--out", other,
               "--m", 5000, "--k", 1) == 0
    index = tmp_path / "mixed.txt"
    index.write_text(f"6,{filters / 'len6.bfi'}\n7,{other / 'len7.bfi'}\n"
                     f"15,{other / 'len15.bfi'}\n")
    report = tmp_path / "r.csv"
    assert run("scan", index, "--rules", rules_file, "--in", trace,
               "--out", tmp_path / "f.pcap", "--report", report) == 0
    row = dict(zip(*(line.split(",") for line in report.read_text().splitlines())))
    assert row["equivalent"] == "1" and row["true_matches"] == "100"


def test_scan_images_under_other_seeds_exit_1_names_index(
        tmp_path, rules_file, built_and_generated, capsys):
    filters, trace, _ = built_and_generated
    other = tmp_path / "other"
    assert run("build", "--rules", rules_file, "--out", other,
               "--seed-a", 5) == 0
    index = tmp_path / "mixed.txt"
    index.write_text(f"6,{filters / 'len6.bfi'}\n7,{other / 'len7.bfi'}\n"
                     f"15,{filters / 'len15.bfi'}\n")
    capsys.readouterr()
    assert run("scan", index, "--rules", rules_file, "--in", trace,
               "--out", tmp_path / "f.pcap", "--report", tmp_path / "r.csv") == 1
    err = capsys.readouterr().err
    assert f"{index} with {rules_file}: filters must share seed_a and seed_b" in err
    assert "length 7 has (5, " in err


def test_scan_stale_image_exit_1_names_id(tmp_path, rules_file,
                                         built_and_generated, capsys):
    # same lengths and counts as the images, but web2 is now cmd.com: the
    # length-7 filter would drop every packet carrying it, even on a
    # trace where none does yet
    filters, _, _ = built_and_generated
    clean = tmp_path / "clean.pcap"
    assert run("gen", "--count", 200, "--seed", 12, "--out", clean,
               "--manifest", tmp_path / "clean.csv") == 0
    edited = tmp_path / "edited.txt"
    edited.write_bytes(RULES.replace(b"cmd.exe", b"cmd.com"))
    capsys.readouterr()
    assert run("scan", filters / "index.txt", "--rules", edited,
               "--in", clean, "--out", tmp_path / "f.pcap",
               "--report", tmp_path / "r.csv") == 1
    assert "web2" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_scan_tampered_image_exit_3(tmp_path, rules_file, built_and_generated,
                                    capsys, monkeypatch):
    # a mis-programmed card drops relevant packets; scan must notice: at
    # load time (exit 1, naming the id), and, with that check blinded,
    # through the baseline comparison
    filters, trace, _ = built_and_generated
    original = BloomFilter.from_image((filters / "len15.bfi").read_bytes())
    bogus = BloomFilter(original.params)
    bogus.add_many(row_array([b"not the real pattern"]))  # count matches, bits do not
    (filters / "len15.bfi").write_bytes(bogus.to_image())
    argv = ("scan", filters / "index.txt", "--rules", rules_file,
            "--in", trace, "--out", tmp_path / "f.pcap",
            "--report", tmp_path / "r.csv")
    capsys.readouterr()
    assert run(*argv) == 1
    assert "web1" in capsys.readouterr().err
    monkeypatch.setattr(BloomFilter, "check_many",
                        lambda self, elements: [True] * len(elements))
    code = run(*argv)
    assert code == 3


@pytest.mark.parametrize("index_text, message", [
    ("6,len6.bfi\n7\n15,len15.bfi\n", "index.txt:2: no image file"),
    ("6,len6.bfi\n7,len7.bfi\n15,len15.bfi\n7,len6.bfi\n",
     "index.txt:4: length 7 listed twice"),
    # int() would read these as 10, 7 and 6
    ("6,len6.bfi\n1_0,len10.bfi\n", "index.txt:2: bad length '1_0'"),
    ("\u0667,len7.bfi\n", "index.txt:1: bad length '\u0667'"),
    ("7,len7.bfi\n+6,len6.bfi\n", "index.txt:2: bad length '+6'"),
    # a lone surrogate escapes the byte 0xFF, which is not UTF-8
    ("6,len6.bfi\n\udcff\n", "line 2: byte 0xFF is not valid UTF-8"),
    ("6,len6.bfi\n\udcff\n", "index.txt: line 2: byte 0xFF"),  # names the file
])
def test_scan_malformed_index_exit_1_names_line(tmp_path, rules_file,
                                                built_and_generated, capsys,
                                                index_text, message):
    filters, trace, _ = built_and_generated
    (filters / "index.txt").write_bytes(
        index_text.encode("utf-8", "surrogateescape"))
    assert run("scan", filters / "index.txt", "--rules", rules_file,
               "--in", trace, "--out", tmp_path / "f.pcap",
               "--report", tmp_path / "r.csv") == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "scan"])
def test_bad_rule_line_names_the_rule_file(tmp_path, built_and_generated,
                                           capsys, command):
    # build's case is test_build_bad_rules_exit_1_names_line
    filters, trace, _ = built_and_generated
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"ok1,ascii,fine\nsig2,b64,Zm9v\n")
    argv = {"gen": ("gen", "--count", 10, "--rules", bad,
                    "--out", tmp_path / "t.pcap", "--manifest", tmp_path / "m.csv"),
            "scan": ("scan", filters / "index.txt", "--rules", bad, "--in", trace,
                     "--out", tmp_path / "f.pcap", "--report", tmp_path / "r.csv")}
    capsys.readouterr()
    assert run(*argv[command]) == 1
    assert f"{bad}: line 2: unknown encoding 'b64'" in capsys.readouterr().err


def test_scan_corrupt_image_names_its_length(tmp_path, rules_file,
                                             built_and_generated, capsys):
    filters, trace, _ = built_and_generated
    image = bytearray((filters / "len7.bfi").read_bytes())
    image[40] ^= 0x01
    (filters / "len7.bfi").write_bytes(image)
    capsys.readouterr()
    assert run("scan", filters / "index.txt", "--rules", rules_file,
               "--in", trace, "--out", tmp_path / "f.pcap",
               "--report", tmp_path / "r.csv") == 1
    assert "length-7 image: checksum mismatch" in capsys.readouterr().err


# --- sweep ------------------------------------------------------------------

def test_sweep_default_grid_row_count(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--trials", 1000, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 24  # header + 4 k-values x 6 n-values


def test_sweep_spot_theory_value(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--m", 16384, "--k-list", "4", "--n-list", "2000",
               "--trials", 100000, "--out", out) == 0
    header, row = out.read_text().splitlines()
    value = float(row.split(",")[header.split(",").index("fpr_theory")])
    assert value == pytest.approx(0.02227, abs=1e-4)


def test_sweep_too_few_trials_exit_1(tmp_path):
    assert run("sweep", "--trials", 10, "--out", tmp_path / "s.csv") == 1


def test_sweep_deterministic(tmp_path):
    for tag in ("a", "b"):
        assert run("sweep", "--k-list", "2,4", "--n-list", "100,500",
                   "--trials", 2000, "--seed", 3,
                   "--out", tmp_path / f"{tag}.csv") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# --- the names bench/tracer.py wraps -----------------------------------------

def test_commands_call_the_names_bound_on_the_cli_module(tmp_path, rules_file,
                                                         monkeypatch):
    # the tracer times each layer by replacing these names on nicsieve.cli;
    # a command that reached them any other way would escape its wraps
    calls = []
    for name in ("load_rules", "read_pcap", "write_pcap", "compare_baseline",
                 "decision_log_csv", "generate_trace", "fpr_sweep", "emit_csv"):
        def recording(*args, name=name, fn=getattr(cli, name), **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, recording)

    def called(*argv):
        calls.clear()
        assert run(*argv) == 0
        return calls[:]

    filters, trace = tmp_path / "filters", tmp_path / "trace.pcap"
    assert called("build", "--rules", rules_file, "--out", filters) == \
        ["load_rules"]
    assert called("gen", "--count", 50, "--attack-fraction", 0.1,
                  "--rules", rules_file, "--out", trace,
                  "--manifest", tmp_path / "truth.csv") == \
        ["load_rules", "generate_trace"]
    assert called("scan", filters / "index.txt", "--rules", rules_file,
                  "--in", trace, "--out", tmp_path / "forwarded.pcap",
                  "--report", tmp_path / "report.csv",
                  "--decision-log", tmp_path / "decisions.csv") == \
        ["load_rules", "read_pcap", "compare_baseline", "write_pcap",
         "emit_csv", "decision_log_csv"]
    assert called("sweep", "--k-list", 4, "--n-list", 100, "--trials", 1000,
                  "--out", tmp_path / "sweep.csv") == ["fpr_sweep", "emit_csv"]


def test_usage_error_exit_1():
    with pytest.raises(SystemExit) as err:
        main(["scan"])  # missing required flags
    assert err.value.code == 1
