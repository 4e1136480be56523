"""TestGenConfig: the one way to configure a run."""

import dataclasses

import pytest

from repro import TestGen, TestGenConfig, load_program
from repro.targets import V1Model


def test_config_is_frozen():
    cfg = TestGenConfig(seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 2


def test_config_replace_and_dict_round_trip():
    cfg = TestGenConfig(seed=5, max_tests=7, jobs=3)
    assert cfg.replace(jobs=1) == TestGenConfig(seed=5, max_tests=7, jobs=1)
    assert cfg.replace(jobs=1) is not cfg
    assert TestGenConfig.from_dict(cfg.as_dict()) == cfg


def test_config_defaults():
    cfg = TestGenConfig()
    assert cfg.strategy == "dfs"
    assert cfg.prune_unsat is True
    assert cfg.jobs == 1
    assert cfg.cache_capacity is None


def test_testgen_config_path_emits_no_warning(recwarn):
    gen = TestGen(load_program("fig1a"), target=V1Model(),
                  config=TestGenConfig(seed=1))
    assert gen.config.seed == 1
    assert not [w for w in recwarn.list
                if issubclass(w.category, DeprecationWarning)]


def test_testgen_explorer_takes_a_config_override():
    gen = TestGen(load_program("fig1a"), target=V1Model(),
                  config=TestGenConfig(seed=1))
    assert gen.explorer().max_tests is None
    explorer = gen.explorer(gen.config.replace(max_tests=3))
    assert explorer.max_tests == 3
    assert explorer.seed == 1  # base config carries through
    assert len(list(explorer.run())) == 3


def test_unknown_kwarg_raises_type_error():
    with pytest.raises(TypeError, match="max_depth"):
        TestGen(load_program("fig1a"), target=V1Model(), max_depth=5)


def test_run_overrides_do_not_mutate_config():
    gen = TestGen(load_program("fig1a"), target=V1Model(),
                  config=TestGenConfig(seed=1))
    result = gen.run(max_tests=1)
    assert len(result.tests) == 1
    assert gen.config.max_tests is None
