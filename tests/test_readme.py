"""The README's python examples run as written, in order, in one namespace,
and its command lines parse with the CLI's own parser."""

import re
import shlex
from pathlib import Path

import numpy as np

from memwave.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the linear-algebra example solves the first slab of the fractional solve
    first_slab = namespace["field"].coefficients[:8].ravel()
    assert np.max(np.abs(namespace["x"] - first_slab)) < 1e-8
    assert namespace["report"].converged


def test_readme_command_lines_parse():
    fences = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    text = "".join(body for lang, body in fences if not lang)
    lines = text.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv for argv in commands if argv[:1] == ["memwave"]]
    assert commands
    for argv in commands:
        build_parser().parse_args(argv[1:])
