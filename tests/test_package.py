import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import nicsieve
from nicsieve.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(nicsieve.__file__).resolve().parents[1]

# Runs ``nicsieve.cli`` as ``python -m nicsieve.cli`` does, then prints the
# modules the process loaded as the last line of its output.
RUN_CLI = """\
import runpy, sys
try:
    runpy.run_module("nicsieve.cli", run_name="__main__", alter_sys=True)
finally:
    print(*sorted(sys.modules))
"""


def test_exports_resolve_and_are_listed_once():
    names = nicsieve.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(nicsieve, name)]
    assert missing == []
    assert set(names) <= set(dir(nicsieve))


def loaded_modules(*argv, cwd=None):
    """The modules a fresh interpreter holds after running ``argv``."""
    run = subprocess.run([sys.executable, *argv], capture_output=True,
                         text=True, cwd=cwd,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.returncode == 0, run.stderr
    return set(run.stdout.splitlines()[-1].split())


def test_importing_the_package_loads_no_submodule():
    loaded = loaded_modules("-c", "import sys, nicsieve\n"
                                  "print(*sorted(sys.modules))")
    assert "nicsieve" in loaded
    assert [name for name in loaded if name.startswith("nicsieve.")] == []


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    """A rule file, its filters and a capture, for one run of each command."""
    work = tmp_path_factory.mktemp("session")
    rules = work / "rules.txt"
    rules.write_text("web1,ascii,GET /x\nhex1,hex,deadbeef\n")
    assert main(["build", "--rules", str(rules), "--out", str(work / "f")]) == 0
    assert main(["gen", "--count", "50", "--attack-fraction", "0.1",
                 "--rules", str(rules), "--out", str(work / "t.pcap"),
                 "--manifest", str(work / "m.csv")]) == 0
    return work


def test_traffic_loads_neither_fractions_nor_decimal():
    # the attack count is integer arithmetic on the fraction's digits
    loaded = loaded_modules("-c", "import sys, nicsieve.traffic\n"
                                  "print(*sorted(sys.modules))")
    assert "nicsieve.traffic" in loaded
    assert loaded & {"fractions", "decimal", "_decimal", "_pydecimal"} == set()


# each subcommand loads only the modules it runs: sweep and build pay for
# neither the capture nor the traffic code, scan not for the generator and
# its csv import, gen not for the card's data path
@pytest.mark.parametrize("argv, absent", [
    (["sweep", "--k-list", "4", "--n-list", "100", "--trials", "1000",
      "--out", "s.csv"],
     {"nicsieve.signatures", "nicsieve.codec", "nicsieve.pipeline",
      "nicsieve.traffic"}),
    (["build", "--rules", "rules.txt", "--out", "f2"],
     {"nicsieve.codec", "nicsieve.pipeline", "nicsieve.traffic",
      "nicsieve.analytics"}),
    (["scan", "f/index.txt", "--rules", "rules.txt", "--in", "t.pcap",
      "--out", "o.pcap", "--report", "r.csv", "--decision-log", "d.csv"],
     {"nicsieve.traffic", "fractions", "csv"}),
    (["gen", "--count", "50", "--attack-fraction", "0.1", "--rules",
      "rules.txt", "--out", "t2.pcap", "--manifest", "m2.csv"],
     {"nicsieve.pipeline"}),
], ids=["sweep", "build", "scan", "gen"])
def test_each_subcommand_imports_only_what_it_runs(session_dir, argv, absent):
    loaded = loaded_modules("-c", RUN_CLI, *argv, cwd=session_dir)
    assert {"nicsieve", "nicsieve.bloom", "numpy"} <= loaded
    assert loaded & absent == set()


def test_readme_library_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    rules = "web1,ascii,GET /x\nhex1,hex,deadbeef\n"
    (tmp_path / "rules.txt").write_text(rules)
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {})
    log = (tmp_path / "decisions.csv").read_text().splitlines()
    assert log[0] == "index,verdict,reason,candidates,verified,payload_len"
    assert len(log) == 10_001


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch):
    # the heredoc is the rule file; each command, its continuations
    # joined, runs in one directory in turn
    blocks = [block for block in re.findall(r"```sh\n(.*?)```",
                                            README.read_text(), re.S)
              if "nicsieve build" in block]
    assert len(blocks) == 1
    script = blocks[0].replace("\\\n", " ")
    rules = re.search(r"^cat > rules.txt <<'RULES'\n(.*?)^RULES$", script,
                      re.S | re.M)
    (tmp_path / "rules.txt").write_text(rules.group(1))
    commands = [shlex.split(line) for line in script.splitlines()
                if line.startswith("nicsieve ")]
    assert [argv[1] for argv in commands] == ["build", "gen", "scan", "sweep"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
