"""The package namespace: every public name, loaded on first use."""

import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cographmean


def test_every_public_name_is_its_module_attribute():
    listed = dir(cographmean)
    wrong = []
    for name in cographmean.__all__:
        module = importlib.import_module(f"cographmean.{cographmean._MODULE_OF[name]}")
        if getattr(cographmean, name) is not getattr(module, name) or name not in listed:
            wrong.append(name)
    assert wrong == []


def test_public_names_are_listed_once():
    assert len(cographmean.__all__) == len(set(cographmean.__all__)) == 65


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cographmean.no_such_name  # noqa: B018
    assert not hasattr(cographmean, "verify_table3")


def _fresh(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(cographmean.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_submodule_until_a_name_is_used():
    out = _fresh(
        "import sys, cographmean\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('cographmean.'))\n"
        "print(loaded())\n"
        "cographmean.phi_cotree\n"
        "print(loaded())\n"
    )
    assert out.splitlines() == [
        "[]",
        "['cographmean.cotree', 'cographmean.errors', 'cographmean.graph', "
        "'cographmean.poly']",
    ]


def test_from_import_of_a_submodule_still_returns_it():
    from cographmean import verify

    assert isinstance(verify, types.ModuleType)
    assert verify.__name__ == "cographmean.verify"
    # and in a process where nothing has touched the package yet
    out = _fresh("from cographmean import verify as v\nprint(v.__name__)\n")
    assert out.strip() == "cographmean.verify"


def test_every_traced_target_exists():
    """``bench/tracer.py`` wraps each ``(module, function, kind)`` of its
    ``TARGETS`` by ``getattr`` when a traced run starts, so a name missing
    here breaks ``bench/run.py --trace``."""
    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # stdlib imports only
    missing = [
        (module, name)
        for module, name, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"cographmean.{module}"), name, None))
    ]
    assert missing == []
