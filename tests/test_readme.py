"""The README's library quick start runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    """The first ``python`` code block under the ``## Quick start (library)`` heading."""
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    section = section.split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_runs() -> None:
    namespace: dict = {}
    exec(compile(quick_start_block(), "README.md", "exec"), namespace)
    assert str(namespace["evaluate_correlator"](0, [[1], [2]])) == "1/18"
