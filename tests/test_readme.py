"""The README's library example runs as written."""

import re
from pathlib import Path

import ugmine as ug

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block of the README's ``## Library`` section."""
    text = README.read_text()
    section = text[text.index("\n## Library\n") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    # the dataset the CLI section generates: gen --preset adhd-like --seed 0
    (tmp_path / "adhd.json").write_bytes(ug.serialize_dataset(ug.make_preset("adhd-like", seed=0)))
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    assert capsys.readouterr().out
