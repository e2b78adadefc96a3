"""What a cold wpposet process pays for: the modules that importing the
package loads, and the named-tuple value classes that replaced
dataclasses."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from wpposet import labeling as lb
from wpposet import trees as tr

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("acceptance", "chains", "cli", "homology", "labeling", "linalg",
           "partitions", "straighten", "trees")
# not loaded by importing the package: only the --jobs pool loads the
# first two, and no path loads the others
NOT_AT_IMPORT = ("multiprocessing", "concurrent.futures", "dataclasses",
                 "inspect", "fractions")


def test_import_loads_no_pool_and_no_dataclasses():
    code = (f"import sys\nfrom wpposet import {', '.join(MODULES)}\n"
            f"print(sorted(m for m in {NOT_AT_IMPORT!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# (value, field tuple, repr) of each class
CASES = [
    (lb.EdgeLabel(1, 3, 0), (1, 3, 0), "EdgeLabel(a=1, b=3, u=0)"),
    (tr.RootedTree(2, ((1, 2), (3, 2))), (2, ((1, 2), (3, 2))),
     "RootedTree(root=2, parent={1: 2, 3: 2})"),
]


@pytest.mark.parametrize("value, fields, text", CASES,
                         ids=["EdgeLabel", "RootedTree"])
def test_frozen_class_contract(value, fields, text):
    cls = type(value)
    assert value == cls(*fields) and not value != cls(*fields)
    assert value != cls(*fields[:-1], "other")
    assert hash(value) == hash(fields)
    assert repr(value) == text
    with pytest.raises(AttributeError):
        value.__setattr__(cls._fields[0], fields[0])
    with pytest.raises(AttributeError):
        setattr(value, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(value, cls._fields[0])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and type(back) is cls

