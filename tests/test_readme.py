"""The README's Library example runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The first python code block of the README's Library section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_library_block_prints_the_output_in_each_comment(capsys):
    block = library_block()
    prints = [line for line in block.splitlines() if line.lstrip().startswith("print(")]
    assert all("#" in line for line in prints), "a print without its output comment"
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == [line.split("#", 1)[1].strip() for line in prints]
