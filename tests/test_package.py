import re
from pathlib import Path

import nicsieve

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
