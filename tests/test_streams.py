"""The random streams: every generator comes from ``pairedrte._streams``, on README's words."""

import ast
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import pairedrte
from pairedrte import (
    InferenceConfig,
    ValidationError,
    bootstrap_distribution,
    prepare_dataset,
    randomization_distribution,
    run_power_experiment,
    table1_scenario,
)
from pairedrte import _streams, estimators, inference, paired_data, simulation
from pairedrte.simulation import draw_paired_sample

SRC = Path(__file__).resolve().parents[1] / "src" / "pairedrte"
CELL_06B = table1_scenario("clayton", "gompertz_exp", "strong", 25)


class TestBlockSeeding:
    """``rngs_of`` against ``default_rng([seed, rep])``, generator for generator."""

    def test_every_row_draws_the_stream_of_default_rng(self):
        # one wrong step of the hash or the LCG can pass a handful of seeds and
        # still move harness counts, so span many: the word boundaries, the
        # seeds run_power_experiment derives at acceptance 10's seed 31 and at
        # 0, and random words; 2**32 and 2**64 take the per-row fallback
        derived = [_streams.grid_seed(seed, i) for seed in (0, 31) for i in range(6)]
        random = [int(w) for w in np.random.default_rng(2024).integers(0, 2**32, 30)]
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64, *derived, *random]
        blocks = [range(200), range(2**31 - 10, 2**31 + 10), range(2**32 - 40, 2**32),
                  range(2**32 - 2, 2**32 + 2)]
        pairs = 0
        for seed in seeds:
            for reps in blocks:
                for rep, rng in zip(reps, _streams.rngs_of(seed, reps), strict=True):
                    want = np.random.default_rng([seed, rep])
                    assert rng.bit_generator.state == want.bit_generator.state, (seed, rep)
                    np.testing.assert_array_equal(rng.random(4), want.random(4))
                    np.testing.assert_array_equal(rng.exponential(1.0, 3), want.exponential(1.0, 3))
                    pairs += 1
        assert pairs >= 10_000

    @pytest.mark.parametrize("seed", [-1, True, 2.5, (1, 2)], ids=repr)
    def test_seed_words_are_checked_as_for_one_generator(self, seed):
        with pytest.raises(ValidationError) as one:
            _streams.rng_of((seed, 0))
        with pytest.raises(ValidationError, match=re.escape(str(one.value))):
            next(_streams.rngs_of(seed, range(3)))
        with pytest.raises(ValidationError, match=re.escape(str(one.value))):
            _streams.grid_seed(seed, 0)


def test_each_stream_is_default_rng_of_its_words(monkeypatch):
    # rows of README's stream table: each generator the package builds through
    # the stream module must be default_rng of the row's words, built here
    default_rng = np.random.default_rng
    data = prepare_dataset(draw_paired_sample(CELL_06B, 3), CELL_06B.tau)
    streams = []
    for method, resample, tag in (("bootstrap", bootstrap_distribution, 7),
                                  ("randomization", randomization_distribution, 13)):
        for seed, words in ((3, [3]), ((3, 4), [3, 4])):
            # 512 replicates in each of chunks 0 to 3, one in chunk 4
            cfg = InferenceConfig(method, b=4 * 512 + 1, seed=seed)
            streams.append((f"{method} at {seed}", partial(resample, data, cfg),
                            [[*words, tag, c] for c in range(5)]))
    for name, call, rows in streams:
        built = []

        def spy(words):
            rng = default_rng(words)
            built.append(rng.bit_generator.state)
            return rng

        monkeypatch.setattr(np.random, "default_rng", spy)
        call()
        monkeypatch.undo()
        assert built == [default_rng(words).bit_generator.state for words in rows], name


def test_power_grid_seeds_come_from_seed_sequence_words(monkeypatch):
    seeds = []
    monkeypatch.setattr(simulation, "run_size_experiment",
                        lambda scenario, **kwargs: seeds.append(kwargs["seed"]))
    run_power_experiment([("point", CELL_06B)] * 3, seed=31)
    assert seeds == [int(np.random.SeedSequence([31, i]).generate_state(1)[0]) for i in range(3)]


def test_only_the_stream_module_builds_generators():
    builders = {"default_rng", "SeedSequence", "PCG64"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_streams.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            if name in builders:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
    # the helpers the stream module replaced survive nowhere, not even as aliases
    moved = {"_seed_entropy", "_is_integer", "_rng_of", "_rngs_of", "_pcg64_seeds",
             "_hash_constants", "_CHUNK", "_STREAM_TAGS"}
    for module in (paired_data, inference, simulation):
        assert moved.isdisjoint(vars(module)), module.__name__


def test_the_event_grid_has_no_public_wrapper():
    # the estimator and both resampling routes call _engine.event_grid directly
    for module in (pairedrte, estimators):
        assert {"counting_processes", "CountingProcesses"}.isdisjoint(vars(module)), module.__name__
