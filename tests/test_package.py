"""The public names of ``import kinex``, resolved from their modules on first use."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kinex


def test_every_public_name_is_the_object_its_home_module_holds():
    for module, names in kinex._HOMES.items():
        home = importlib.import_module(f"kinex.{module}")
        for name in names:
            value = getattr(kinex, name)
            assert value is getattr(home, name), name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == home.__name__, name  # defined there, not re-exported
    assert len(set(kinex.__all__)) == len(kinex.__all__)  # no name has two homes


def test_dir_lists_every_public_name():
    assert set(kinex.__all__) <= set(dir(kinex))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from kinex import *", namespace)
    assert set(kinex.__all__) <= set(namespace)
    assert namespace["build_lattice"] is importlib.import_module("kinex.rrn").build_lattice


@pytest.mark.parametrize("module", ["kinex", "kinex.cli"])
def test_an_unknown_name_raises_attribute_error_naming_it(module):
    with pytest.raises(AttributeError, match=f"module '{module}' has no attribute 'no_such_name'"):
        getattr(importlib.import_module(module), "no_such_name")


def test_the_cli_resolves_the_dist_and_rrn_names_from_their_modules():
    import kinex.cli as cli
    from kinex import distribution, rrn

    assert cli.run_equilibrium is distribution.run_equilibrium
    assert cli.run_rrn_relaxation is rrn.run_rrn_relaxation


def test_import_kinex_loads_none_of_its_modules_until_a_name_is_used():
    code = (
        "import json, sys, kinex\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('kinex.'))\n"
        "listed = set(kinex.__all__) <= set(dir(kinex))\n"
        "from kinex import *\n"
        "print(json.dumps([loaded, listed, sorted(set(kinex.__all__) - set(globals()))]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(kinex.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [[], True, []]
