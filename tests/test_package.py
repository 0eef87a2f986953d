"""The package's names and submodules resolve on first use (PEP 562): each
export is its home module's object, each submodule an attribute, and any
other name an AttributeError, as ``getattr(module, name, None)`` expects."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import survformer

PACKAGE = Path(survformer.__file__).resolve().parent
SUBMODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# In a fresh process: the submodules loaded by ``import survformer``, then
# for each submodule whether the attribute is the module it names.
CHILD = """import importlib, json, sys
import survformer
loaded = sorted(m for m in sys.modules if m.startswith('survformer.'))
names = json.loads(sys.argv[1])
print(json.dumps([loaded, [getattr(survformer, n) is importlib.import_module('survformer.' + n) for n in names]]))
"""


def test_every_export_is_its_home_modules_object():
    assert len(survformer.__all__) == 26
    for name in survformer.__all__:
        obj = getattr(survformer, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("survformer.") and getattr(home, name) is obj, name
    assert survformer.train is survformer.training.train


def test_every_submodule_resolves_as_an_attribute():
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(SUBMODULES)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "kernels" in SUBMODULES and "commands" in SUBMODULES
    assert json.loads(done.stdout) == [[], [True] * len(SUBMODULES)], (SUBMODULES, done.stdout)


def test_an_unknown_name_is_an_attribute_error():
    assert getattr(survformer, "no_such_name", None) is None
    assert getattr(survformer, "numpy", None) is None  # not a submodule, so never imported
