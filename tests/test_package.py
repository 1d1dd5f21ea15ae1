import re
import shlex
from pathlib import Path

import nicsieve
from nicsieve.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_resolve_and_are_listed_once():
    names = nicsieve.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(nicsieve, name)]
    assert missing == []


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
