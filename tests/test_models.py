"""Extractor geometry, classifier assembly, checkpoints."""

import json
import os

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from test_data import _mutated, _paths

from trifuse import models, ops
from trifuse.fusion import FusionSpecError, MaterializeError
from trifuse.tensor import load_tensor, save_tensor


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


class TestExtractorGeometry:
    def test_eeg_time_chain(self):
        plan = models.extractor_plan("eeg")
        assert models.time_chain(plan, 600) == [148, 146, 144, 34, 32, 30]

    def test_eeg_block4_arithmetic_note(self):
        # stride arithmetic gives 34 for block 4, not the often-quoted 32;
        # the 32, 30, 28 tail is itself consistent under the floor formula
        assert ops.conv_out_length(144, 9, 4, 0) == 34
        assert ops.conv_out_length(32, 3, 1, 0) == 30
        assert ops.conv_out_length(30, 3, 1, 0) == 28

    def test_nirs_repaired_chain(self):
        plan = models.extractor_plan("oxy")
        assert models.time_chain(plan, 30) == [13, 11, 9, 7, 5, 3]
        assert [b["out_channels"] for b in plan["blocks"]] == [72, 72, 72, 144, 144, 144]

    def test_nirs_nine_four_geometry_is_infeasible(self):
        # a (9,4) opening filter cannot serve 30-sample windows
        assert ops.conv_out_length(30, 9, 4, 0) == 6  # not the designed 13
        assert ops.conv_out_length(9, 9, 4, 0) == 1  # block 4 would be starved
        with pytest.raises(ops.GeometryError):
            models.time_chain(
                {"in_channels": 36, "blocks": [
                    {"out_channels": 72, "filter": 9, "stride": 4, "padding": 0},
                    {"out_channels": 72, "filter": 3, "stride": 1, "padding": 0},
                    {"out_channels": 72, "filter": 3, "stride": 1, "padding": 0},
                    {"out_channels": 144, "filter": 9, "stride": 4, "padding": 0},
                ]}, 30)

    def test_feature_lengths(self):
        assert models.feature_length(models.extractor_plan("eeg")) == 120
        assert models.feature_length(models.extractor_plan("oxy")) == 144
        assert models.feature_length(models.extractor_plan("eeg", "desk")) == 20
        assert models.feature_length(models.extractor_plan("deoxy", "desk")) == 24

    def test_feature_length_invariant_to_input_time(self):
        model = models.build_from_spec({"type": "single", "modality": "eeg", "profile": "desk"}, seed=0)
        rng = np.random.default_rng(0)
        for t in (600, 700, 1000):
            z = model.features(rng.normal(size=(2, 30, t)))
            assert z.shape == (2, 20)


class TestSingleModal:
    def test_head_widths(self):
        eeg = models.build_from_spec({"type": "single", "modality": "eeg"}, seed=0)
        assert eeg.params["head1.w"].shape == (120, 60)
        assert eeg.params["head2.w"].shape == (60, 2)
        nirs = models.build_from_spec({"type": "single", "modality": "oxy"}, seed=0)
        assert nirs.params["head1.w"].shape == (144, 72)
        assert nirs.params["head2.w"].shape == (72, 2)

    def test_wrong_channel_count_rejected(self):
        model = models.build_from_spec({"type": "single", "modality": "eeg", "profile": "desk"}, seed=0)
        with pytest.raises(models.ModelError, match="channels"):
            model.forward(np.zeros((2, 31, 600)))


class TestFused:
    def test_lf_parameter_totals(self):
        spec = {"kind": "LF", "output_dim": 128}
        model = models.build_from_spec({"type": "fused", "profile": "full", "fusion": spec}, seed=0)
        assert model.fusion_param_count() == 52224
        assert model.params["head.w"].size + model.params["head.b"].size == 128 * 2 + 2

    def test_pf5_symmetric_parameter_total(self):
        spec = {"kind": "PF", "output_dim": 128, "rank": 16, "order": 5, "symmetric": True}
        model = models.build_from_spec({"type": "fused", "profile": "full", "fusion": spec}, seed=0)
        assert model.fusion_param_count() == 835600

    def test_zero_input_is_finite(self):
        spec = {"kind": "PF", "output_dim": 8, "rank": 4, "order": 3, "symmetric": True}
        model = models.build_from_spec({"type": "fused", "profile": "desk", "fusion": spec}, seed=2)
        logits = model.forward((np.zeros((2, 30, 600)), np.zeros((2, 36, 30)), np.zeros((2, 36, 30))))
        assert np.isfinite(logits).all()

    def test_eval_forward_bit_deterministic(self):
        rng = np.random.default_rng(3)
        spec = {"kind": "TF", "output_dim": 8, "rank": 4}
        model = models.build_from_spec({"type": "fused", "profile": "desk", "fusion": spec}, seed=3)
        x = (rng.normal(size=(2, 30, 600)), rng.normal(size=(2, 36, 30)), rng.normal(size=(2, 36, 30)))
        a = model.forward(x)
        b = model.forward(x)
        assert a.tobytes() == b.tobytes()

    def test_l2_normalization_defaults(self):
        lf = models.build_from_spec({"type": "fused", "profile": "desk", "fusion": {"kind": "LF", "output_dim": 8}})
        tf = models.build_from_spec({"type": "fused", "profile": "desk",
                                     "fusion": {"kind": "TF", "output_dim": 8, "rank": 2}})
        assert lf.topology["l2_normalize"] is False
        assert tf.topology["l2_normalize"] is True
        lf2 = models.build_from_spec({"type": "fused", "profile": "desk",
                                      "fusion": {"kind": "LF", "output_dim": 8}, "l2_normalize": True})
        assert lf2.topology["l2_normalize"] is True


class TestForward:
    # forward(inputs) evaluates; forward(inputs, params) is the training forward
    SPEC = {"type": "fused", "profile": "desk", "fusion": {"kind": "TF", "output_dim": 8, "rank": 4}}

    def batch(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(n, 30, 600)), rng.normal(size=(n, 36, 30)), rng.normal(size=(n, 36, 30)))

    def test_fresh_model_predicts_one_sample(self):
        model = models.build_from_spec(self.SPEC, seed=1)
        assert model.predict(self.batch(1)).shape == (1,)

    def test_eval_leaves_state_untouched(self):
        model = models.build_from_spec(self.SPEC, seed=1)
        before = {k: (st.running_mean.tobytes(), st.running_var.tobytes()) for k, st in model.state.items()}
        model.forward(self.batch(3))
        assert {k: (st.running_mean.tobytes(), st.running_var.tobytes())
                for k, st in model.state.items()} == before

    def test_sample_logits_independent_of_batch(self):
        model = models.build_from_spec(self.SPEC, seed=1)
        x = self.batch(3)
        together = model.forward(x)
        for i in range(3):
            alone = model.forward(tuple(a[i:i + 1] for a in x))
            assert np.max(np.abs(alone[0] - together[i])) <= 1e-12 * np.max(np.abs(together[i]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_logits_raise(self, bad):
        # argmax would read a NaN row as class 0 and report it as a prediction
        model = models.build_from_spec(self.SPEC, seed=1)
        model.params["head.b"][1] = bad
        with pytest.raises(FloatingPointError, match="non-finite logits"):
            model.predict(self.batch(2))

    def test_training_forward_moves_running_mean(self):
        from trifuse import autodiff as ad

        model = models.build_from_spec(self.SPEC, seed=1)
        tape = ad.Tape()
        model.forward(self.batch(3), {k: tape.variable(v) for k, v in model.params.items()})
        assert all(np.any(st.running_mean != 0) for st in model.state.values())


class TestTinyClones:
    # the full sweep over every model kind runs in the acceptance suite;
    # here one symmetric polynomial clone guards the model-level wiring
    def test_tiny_fused_grad_check(self):
        from trifuse import autodiff as ad

        rng = np.random.default_rng(7)
        spec = {"kind": "PF", "output_dim": 8, "rank": 4, "order": 3, "symmetric": True}
        model = models.build_from_spec({"type": "fused", "fusion": spec}, seed=2, plans=models.TINY_PLANS)
        inputs = models.tiny_inputs(rng, batch=2)
        labels = np.array([0, 1])

        def build(pvars):
            logits = model.forward(inputs, pvars)
            return ops.softmax_crossentropy(logits, labels)

        assert ad.grad_check(build, model.params, eps=1e-5) < 1e-4


class TestBuildFromSpec:
    def test_single_dispatch(self):
        model = models.build_from_spec({"type": "single", "modality": "oxy", "profile": "desk"}, seed=4)
        assert model.topology["modality"] == "oxy"

    def test_fused_dispatch_fills_dims(self):
        spec = {"type": "fused", "profile": "desk",
                "fusion": {"kind": "PF", "output_dim": 8, "rank": 4, "order": 2}}
        model = models.build_from_spec(spec, seed=4)
        assert tuple(model.topology["fusion"]["input_dims"]) == (20, 24, 24)

    def test_unknown_type_rejected(self):
        with pytest.raises(models.ModelError):
            models.build_from_spec({"type": "stacked"})

    def test_tiny_plans_replace_profile_extractors(self):
        model = models.build_from_spec({"type": "fused", "fusion": {"kind": "LF", "output_dim": 4}},
                                       plans=models.TINY_PLANS)
        assert tuple(model.topology["fusion"]["input_dims"]) == (12, 10, 10)
        assert model.topology["extractors"] == models.TINY_PLANS


# specs the one validator must reject with a named problem, never a TypeError or KeyError
BAD_SPECS = {
    "fused-no-output-dim": ({"type": "fused", "fusion": {"kind": "TF", "rank": 4}}, FusionSpecError,
                            "output_dim"),
    "unknown-fusion-key": ({"type": "fused", "fusion": {"kind": "LF", "output_dim": 4, "width": 3}},
                           FusionSpecError, "width"),
    "fusion-not-a-dict": ({"type": "fused", "fusion": 5}, FusionSpecError, "fusion must be a dict"),
    "unknown-modality": ({"type": "single", "modality": "fnirs"}, models.ModelError, "fnirs"),
    "fused-no-kind": ({"type": "fused", "fusion": {"output_dim": 4}}, FusionSpecError, "kind"),
    "bad-kind": ({"type": "fused", "fusion": {"kind": "QF", "output_dim": 4}}, FusionSpecError, "QF"),
    "unknown-spec-key": ({"type": "single", "modality": "eeg", "depth": 3}, models.ModelError, "depth"),
    "bad-profile": ({"type": "single", "modality": "eeg", "profile": "huge"}, models.ModelError, "huge"),
    "unhashable-profile": ({"type": "single", "modality": "eeg", "profile": []}, models.ModelError, "profile"),
    "spec-not-a-dict": (["single"], models.ModelError, "must be a dict"),
    "l2-not-bool": ({"type": "fused", "fusion": {"kind": "LF", "output_dim": 4}, "l2_normalize": "yes"},
                    models.ModelError, "l2_normalize"),
    "fusion-on-single": ({"type": "single", "modality": "eeg", "fusion": {"kind": "LF"}}, models.ModelError,
                         "single model takes no fusion or l2_normalize"),
    "modality-on-fused": ({"type": "fused", "modality": "eeg", "fusion": {"kind": "LF", "output_dim": 4}},
                          models.ModelError, "fused model takes no modality"),
    "tf-full-over-guard": ({"type": "fused", "fusion": {"kind": "TF", "output_dim": 128, "path": "full"}},
                           MaterializeError, "guard"),
    # bounded in O(1), before one factor shape per order is listed
    "pf-order-over-guard": ({"type": "fused", "profile": "desk",
                             "fusion": {"kind": "PF", "order": 10**9, "rank": 4, "output_dim": 8}},
                            MaterializeError, "guard"),
    "pf-symmetric-order-over-guard": ({"type": "fused", "profile": "desk", "fusion": {
        "kind": "PF", "order": 10**9, "rank": 4, "output_dim": 8, "symmetric": True}}, MaterializeError, "guard"),
    "tf-rank-over-guard": ({"type": "fused", "fusion": {"kind": "TF", "rank": 10**6, "output_dim": 128}},
                           MaterializeError, "guard"),
    "lf-output-dim-over-guard": ({"type": "fused", "fusion": {"kind": "LF", "output_dim": 10**6}},
                                 MaterializeError, "guard"),
}


class TestSpecValidation:
    @pytest.mark.parametrize("spec, error, words", BAD_SPECS.values(), ids=list(BAD_SPECS))
    def test_bad_spec_raises_named_error(self, spec, error, words):
        with pytest.raises(error, match=words):
            models.build_from_spec(spec)
        with pytest.raises(error, match=words):
            models.topology(spec)

    @settings(max_examples=300, deadline=None)
    @given(spec=st.one_of(
        JSON,
        st.fixed_dictionaries({}, optional={
            "type": st.sampled_from(["single", "fused"]) | JSON,
            "modality": st.sampled_from(models.MODALITIES) | JSON,
            "profile": st.sampled_from(["desk", "full"]) | JSON,
            "l2_normalize": st.booleans() | JSON,
            "fusion": st.fixed_dictionaries({}, optional={
                "kind": st.sampled_from(["LF", "TF", "PF"]) | JSON,
                "output_dim": st.integers() | JSON, "rank": st.integers() | JSON,
                "order": st.integers() | JSON, "symmetric": st.booleans() | JSON,
                "path": st.sampled_from(["full", "factorized"]) | JSON,
                "augment_one": st.booleans() | JSON,
            }) | JSON,
        }),
    ))
    def test_topology_raises_only_spec_errors(self, spec):
        try:
            topo = models.topology(spec)
        except (models.ModelError, FusionSpecError, MaterializeError):
            return
        assert topo["type"] in ("single", "fused")


SHAPE_SPECS = {
    "single-eeg": {"type": "single", "modality": "eeg", "profile": "desk"},
    "lf": {"type": "fused", "profile": "desk", "fusion": {"kind": "LF", "output_dim": 8}},
    "tf": {"type": "fused", "profile": "desk", "fusion": {"kind": "TF", "rank": 3, "output_dim": 8}},
    "tf-full": {"type": "fused", "profile": "desk", "fusion": {"kind": "TF", "output_dim": 2, "path": "full"}},
    "pf3-sym": {"type": "fused", "profile": "desk",
                "fusion": {"kind": "PF", "order": 3, "rank": 4, "symmetric": True, "output_dim": 8}},
    "pf2-full": {"type": "fused", "profile": "desk",
                 "fusion": {"kind": "PF", "order": 2, "output_dim": 2, "path": "full"}},
    "pf2-aug": {"type": "fused", "profile": "desk",
                "fusion": {"kind": "PF", "order": 2, "rank": 4, "augment_one": True, "output_dim": 8}},
}


@pytest.fixture(scope="module")
def checkpoint_docs(tmp_path_factory):
    """Valid desk checkpoints on disk, by directory, with their topology.json documents."""
    docs = {}
    for name in ("single-eeg", "pf2-aug", "tf-full"):
        ckpt = tmp_path_factory.mktemp(name)
        models.save_model(models.build_from_spec(SHAPE_SPECS[name]), ckpt)
        docs[ckpt] = json.loads((ckpt / "topology.json").read_text())
    return docs


class TestCheckpoint:
    @settings(max_examples=300, deadline=None)
    @given(choice=st.data())
    def test_mutated_topology_json_raises_only_model_error(self, checkpoint_docs, choice):
        ckpt = choice.draw(st.sampled_from(sorted(checkpoint_docs)))
        doc = checkpoint_docs[ckpt]
        path = choice.draw(st.sampled_from(list(_paths(doc))))
        delete = bool(path) and choice.draw(st.booleans())
        mutated = _mutated(doc, path, None if delete else choice.draw(JSON), delete)
        (ckpt / "topology.json").write_text(json.dumps(mutated))
        for read in (models.load_model, models.checkpoint_digest_problems):
            try:
                read(ckpt)
            except models.ModelError:
                pass

    @pytest.mark.parametrize("spec", SHAPE_SPECS.values(), ids=list(SHAPE_SPECS))
    def test_param_shapes_match_allocation(self, spec):
        model = models.build_from_spec(spec)
        assert models.param_shapes(model.topology) == {k: v.shape for k, v in model.params.items()}

    @pytest.mark.parametrize("rel", ["params/fusion.factor2.ten", "params/fusion.mix.ten",
                                     "params/oxy.conv1.w.ten", "params/head.b.ten",
                                     "state/deoxy.bn2.var.ten"])
    def test_wrong_shape_rejected(self, tmp_path, rel):
        model = models.build_from_spec(SHAPE_SPECS["tf"])
        models.save_model(model, tmp_path / "ckpt")
        path = tmp_path / "ckpt" / rel
        save_tensor(path, load_tensor(path)[..., :1])
        with pytest.raises(models.ModelError, match=f"checkpoint file {rel} has shape"):
            models.load_model(tmp_path / "ckpt")

    def test_unreadable_file_rejected(self, tmp_path):
        model = models.build_from_spec(SHAPE_SPECS["single-eeg"])
        models.save_model(model, tmp_path / "ckpt")
        path = tmp_path / "ckpt" / "params" / "head2.w.ten"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(models.ModelError, match="head2.w.ten unreadable"):
            models.load_model(tmp_path / "ckpt")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("rel", ["topology.json", "params/head2.w.ten", "state/eeg.bn1.mean.ten"])
    def test_fifo_in_a_checkpoint_is_refused(self, tmp_path, fails_before_hanging, rel):
        # opening a FIFO blocks until a writer appears: it is refused unopened
        models.save_model(models.build_from_spec(SHAPE_SPECS["single-eeg"]), tmp_path)
        os.remove(tmp_path / rel)
        os.mkfifo(tmp_path / rel)
        with pytest.raises(models.ModelError, match=f"^checkpoint file {rel} is not a regular file$"):
            models.load_model(tmp_path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_is_one_digest_problem(self, tmp_path, fails_before_hanging):
        models.save_model(models.build_from_spec(SHAPE_SPECS["single-eeg"]), tmp_path)
        os.remove(tmp_path / "params" / "head2.w.ten")
        os.mkfifo(tmp_path / "params" / "head2.w.ten")
        assert models.checkpoint_digest_problems(tmp_path) == ["head2.w: parameter file is not a regular file"]


    def test_roundtrip_preserves_forward(self, tmp_path):
        rng = np.random.default_rng(5)
        spec = {"kind": "PF", "output_dim": 8, "rank": 4, "order": 2, "symmetric": True}
        model = models.build_from_spec({"type": "fused", "profile": "desk", "fusion": spec}, seed=5)
        x = (rng.normal(size=(2, 30, 600)), rng.normal(size=(2, 36, 30)), rng.normal(size=(2, 36, 30)))
        before = model.forward(x)
        models.save_model(model, tmp_path / "ckpt")
        loaded = models.load_model(tmp_path / "ckpt")
        after = loaded.forward(x)
        assert before.tobytes() == after.tobytes()

    def test_digest_catches_corruption(self, tmp_path):
        model = models.build_from_spec({"type": "single", "modality": "eeg", "profile": "desk"}, seed=6)
        models.save_model(model, tmp_path / "ckpt")
        assert models.checkpoint_digest_problems(tmp_path / "ckpt") == []
        victim = tmp_path / "ckpt" / "params" / "head1.w.ten"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        problems = models.checkpoint_digest_problems(tmp_path / "ckpt")
        assert any("head1.w" in p for p in problems)
