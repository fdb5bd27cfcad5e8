"""tools/size.py: its counting rules, and the ceilings on the package's lines and settable values."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("size", ROOT / "tools" / "size.py")
size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(size)

# The most settable values (dataclass fields plus defaulted parameters) that
# src/diffclass may hold.  A change that raises it says why in CHANGES.md.
SETTABLE_CEILING = 83
# The most source lines src/diffclass may hold, as tools/size.py counts them.  A
# change that raises it says in CHANGES.md why, with the numbers that paid for
# the lines; a change that deletes lines lowers it to the new count.
LINES_CEILING = 3036

SYNTHETIC = '''\
import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    a: int
    b: int = 2
    c: str = "x"

    def method(self, x, y=1, *, z=2, w):
        def nested(q=1):
            return q
        return nested()


@dataclasses.dataclass
class Other:
    d: float = 0.0


class Plain:
    e: int = 3

    def method(self, p=1):
        return p


def top(a, b=1, *args, c=2, d, **kwargs):
    def inner(e=1, f=2):
        return e
    return inner()


async def waits(x=1):
    return x
'''


def test_counts_fields_and_defaults_but_not_nested_functions_or_plain_annotations(tmp_path):
    """Fields: Config's a, b, c and Other's d, not Plain's e.  Defaults: y and z of
    Config.method, p of Plain.method, b and c of top, and x of waits; nested and
    inner are not counted."""
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC, encoding="utf-8")
    assert size.module_size(path) == (SYNTHETIC.count("\n"), 4, 6)


def _package_sizes():
    return [size.module_size(path) for path in (ROOT / "src" / "diffclass").glob("*.py")]


def test_the_package_keeps_its_settable_values_under_the_ceiling():
    assert sum(fields + params for _, fields, params in _package_sizes()) <= SETTABLE_CEILING


def test_the_package_keeps_its_lines_under_the_ceiling():
    assert sum(lines for lines, _, _ in _package_sizes()) <= LINES_CEILING
