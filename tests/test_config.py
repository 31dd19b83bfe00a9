"""Run configuration: every JSON document either resolves or fails closed."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifuse import config, data, models

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _section(keys, **values):
    """A dict over a section's own keys, each value a likely one or any JSON."""
    return st.fixed_dictionaries({}, optional={k: values.get(k, st.nothing()) | JSON for k in keys}) | JSON


DOCUMENTS = st.fixed_dictionaries({}, optional={
    "task": st.text(max_size=4) | JSON,
    "profile": st.sampled_from(config.PROFILES) | JSON,
    "seed": st.integers(0, 9) | JSON,
    "jobs": st.integers(1, 3) | JSON,
    "out": st.text(min_size=1, max_size=4) | JSON,
    "data": _section(config.DATA_KEYS, manifest=st.text(max_size=4), seed=st.integers(0, 9),
                     shuffle_labels=st.booleans(),
                     synth=_section(config.SYNTH_KEYS, generator=st.sampled_from(["additive", "interaction"]),
                                    n_trials=st.integers(0, 40), noise=st.floats(0, 1))),
    "model": _section(config.MODEL_KEYS, type=st.sampled_from(["single", "fused"]),
                      modality=st.sampled_from(["eeg", "oxy", "deoxy"]), l2_normalize=st.booleans(),
                      fusion=_section(config.FUSION_KEYS, kind=st.sampled_from(["LF", "TF", "PF"]),
                                      path=st.sampled_from(["full", "factorized"]),
                                      order=st.integers(1, 4), rank=st.integers(1, 8),
                                      output_dim=st.integers(1, 8))),
    "train": _section(config.TRAIN_KEYS, epochs=st.integers(1, 5), shuffle=st.booleans(),
                      trial_vote=st.booleans(), lr=st.floats(0, 1)),
    "cv": _section(config.CV_KEYS, k=st.integers(0, 6)),
}) | JSON


@settings(max_examples=400, deadline=None)
@given(doc=DOCUMENTS)
def test_resolve_returns_config_or_raises_config_error(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(doc))
    try:
        cfg = config.resolve(str(path))
    except config.ConfigError:
        return
    assert isinstance(cfg, config.RunConfig)
    json.dumps(cfg.fingerprint())


def test_model_spec_is_unchanged_by_validation(tmp_path):
    doc = {"model": {"type": "fused", "fusion": {"kind": "PF", "order": 3, "rank": 4, "symmetric": True},
                     "l2_normalize": False}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = config.resolve(str(path), {"profile": "desk"})
    assert cfg.model == {"type": "fused", "profile": "desk", "l2_normalize": False,
                         "fusion": {"kind": "PF", "order": 3, "rank": 4, "symmetric": True, "output_dim": 16}}


@pytest.mark.parametrize("doc", [{"data": {"synth": {"generator": "additive"}}},
                                 {"data": {"synth": {"generator": "additive", "n_trials": 4, "noise": "x"}}},
                                 {"data": {"manifest": 5}}, {"data": {"shuffle_labels": 1}},
                                 {"out": 5}, {"task": None}, {"train": {"trial_vote": 1}}],
                         ids=["synth-no-trials", "synth-noise-string", "manifest-int", "shuffle-labels-int",
                              "out-int", "task-null", "trial-vote-int"])
def test_mistyped_settings_are_config_errors(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(config.ConfigError):
        config.resolve(str(path))


def test_key_sets_are_the_ones_written_out_before():
    # derived from the dataclass fields now: a field added there is a config key at once
    assert config.TRAIN_KEYS == {"epochs", "batch_size", "lr", "beta1", "beta2", "eps", "shuffle", "trial_vote"}
    assert config.SYNTH_KEYS == {"generator", "n_trials", "segments_per_trial", "noise", "n_subjects"}
    assert models.FUSION_KEYS == ("kind", "output_dim", "rank", "order", "symmetric", "path", "augment_one")
    assert config.PROFILES == ("full", "desk")


@pytest.mark.parametrize("profile, epochs, output_dim", [("full", 300, 128), ("desk", 30, 16)])
def test_profile_defaults(profile, epochs, output_dim):
    cfg = config.resolve(overrides={"profile": profile, "model": {"type": "fused", "fusion": {"kind": "LF"}}})
    assert (cfg.train.epochs, cfg.model["fusion"]["output_dim"]) == (epochs, output_dim)
    assert (cfg.task, cfg.seed, cfg.jobs, cfg.k) == ("run", 0, 1, 5)


class TestShuffleLabels:
    @staticmethod
    def load(segments_per_trial: int, shuffle: bool | None) -> data.SegmentDataset:
        synth = {"generator": "additive", "n_trials": 12, "segments_per_trial": segments_per_trial,
                 "n_subjects": 2}
        return config.load_dataset(config.resolve(overrides={"synth": synth, "shuffle_labels": shuffle}))

    def test_every_trial_keeps_one_label(self):
        # permuting segment labels gave trial 0's four segments the labels [1 0 1 0]
        shuffled, plain = self.load(4, True), self.load(4, None)
        for tid in np.unique(shuffled.trial_ids):
            assert len(set(shuffled.labels[shuffled.trial_ids == tid].tolist())) == 1
        assert np.array_equal(shuffled.trial_ids, plain.trial_ids)
        assert np.array_equal(shuffled.trial_first, plain.trial_first)
        assert sorted(shuffled.labels[shuffled.trial_first]) == sorted(plain.labels[plain.trial_first])
        assert not np.array_equal(shuffled.labels, plain.labels)
        data.make_folds(shuffled, k=3)

    def test_one_segment_per_trial_permutes_as_segments_did(self):
        shuffled, plain = self.load(1, True), self.load(1, None)
        rng = np.random.default_rng(0 + 1)  # the data seed defaults to the run seed, 0
        assert shuffled.labels.tobytes() == rng.permutation(plain.labels).tobytes()
