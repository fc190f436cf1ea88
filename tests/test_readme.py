"""README's python blocks run as written.

A block of `>>>` lines runs through doctest, so its shown output is
checked; every other python block is executed and must not raise.
"""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    """(section heading, code) of each ```python block of README."""
    blocks = []
    for section in re.split(r"^## ", README.read_text(), flags=re.M)[1:]:
        heading = section.splitlines()[0]
        blocks += [(heading, code) for code in
                   re.findall(r"^```python\n(.*?)^```", section,
                              flags=re.M | re.S)]
    return blocks


BLOCKS = _python_blocks()


def test_readme_blocks_found():
    assert [heading for heading, _ in BLOCKS] == [
        "Quadrature", "Library sketch", "Array entry points"]


@pytest.mark.parametrize("heading, code", BLOCKS,
                         ids=[heading for heading, _ in BLOCKS])
def test_readme_block_runs(heading, code):
    if code.lstrip().startswith(">>>"):
        test = doctest.DocTestParser().get_doctest(
            code, {}, f"README {heading}", str(README), 0)
        runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
        runner.run(test)
        assert runner.summarize(verbose=False) == (0, len(test.examples))
    else:
        exec(compile(code, f"README.md ({heading})", "exec"), {})
