"""The README's library example runs as written."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs(monkeypatch, capsys):
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library"):]
    start = section.index("```python\n") + len("```python\n")
    block = section[start:section.index("```", start)]
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    env_dim, marginal_error = capsys.readouterr().out.split()
    assert int(env_dim) == 2
    assert float(marginal_error) <= 1e-10
