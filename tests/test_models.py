"""Extractor geometry, classifier assembly, checkpoints."""

import numpy as np
import pytest

from trifuse import models, ops


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
        model = models.ModelGraph.single_modal("eeg", profile="desk", seed=0).set_mode("eval")
        rng = np.random.default_rng(0)
        for t in (600, 700, 1000):
            z = model.features(rng.normal(size=(2, 30, t)))
            assert z.shape == (2, 20)


class TestSingleModal:
    def test_head_widths(self):
        eeg = models.ModelGraph.single_modal("eeg", seed=0)
        assert eeg.params["head1.w"].shape == (120, 60)
        assert eeg.params["head2.w"].shape == (60, 2)
        nirs = models.ModelGraph.single_modal("oxy", seed=0)
        assert nirs.params["head1.w"].shape == (144, 72)
        assert nirs.params["head2.w"].shape == (72, 2)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        model = models.ModelGraph.single_modal("deoxy", profile="desk", seed=1).set_mode("eval")
        probs = model.probabilities(rng.normal(size=(3, 36, 30)))
        assert probs.shape == (3, 2)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_wrong_channel_count_rejected(self):
        model = models.ModelGraph.single_modal("eeg", profile="desk", seed=0)
        with pytest.raises(models.ModelError, match="channels"):
            model.forward(np.zeros((2, 31, 600)))


class TestFused:
    def test_lf_parameter_totals(self):
        spec = {"kind": "LF", "output_dim": 128}
        model = models.ModelGraph.fused(spec, profile="full", seed=0)
        assert model.fusion_param_count() == 52224
        assert model.params["head.w"].size + model.params["head.b"].size == 128 * 2 + 2

    def test_pf5_symmetric_parameter_total(self):
        spec = {"kind": "PF", "output_dim": 128, "rank": 16, "order": 5, "symmetric": True}
        model = models.ModelGraph.fused(spec, profile="full", seed=0)
        assert model.fusion_param_count() == 835600

    def test_zero_input_is_finite(self):
        spec = {"kind": "PF", "output_dim": 8, "rank": 4, "order": 3, "symmetric": True}
        model = models.ModelGraph.fused(spec, profile="desk", seed=2).set_mode("eval")
        logits = model.forward((np.zeros((2, 30, 600)), np.zeros((2, 36, 30)), np.zeros((2, 36, 30))))
        assert np.isfinite(logits).all()

    def test_eval_forward_bit_deterministic(self):
        rng = np.random.default_rng(3)
        spec = {"kind": "TF", "output_dim": 8, "rank": 4}
        model = models.ModelGraph.fused(spec, profile="desk", seed=3).set_mode("eval")
        x = (rng.normal(size=(2, 30, 600)), rng.normal(size=(2, 36, 30)), rng.normal(size=(2, 36, 30)))
        a = model.forward(x)
        b = model.forward(x)
        assert a.tobytes() == b.tobytes()

    def test_l2_normalization_defaults(self):
        lf = models.ModelGraph.fused({"kind": "LF", "output_dim": 8}, profile="desk")
        tf = models.ModelGraph.fused({"kind": "TF", "output_dim": 8, "rank": 2}, profile="desk")
        assert lf.topology["l2_normalize"] is False
        assert tf.topology["l2_normalize"] is True
        lf2 = models.ModelGraph.fused({"kind": "LF", "output_dim": 8}, profile="desk", l2_normalize=True)
        assert lf2.topology["l2_normalize"] is True


class TestTinyClones:
    # the full sweep over every model kind runs in the acceptance suite;
    # here one symmetric polynomial clone guards the model-level wiring
    def test_tiny_fused_grad_check(self):
        from trifuse import autodiff as ad

        rng = np.random.default_rng(7)
        spec = {"kind": "PF", "output_dim": 8, "rank": 4, "order": 3, "symmetric": True}
        model = models.build_tiny_fused(spec, seed=2)
        inputs = models.tiny_inputs(rng, batch=2)
        labels = np.array([0, 1])

        def build(tape, pvars):
            logits = model.forward(inputs, pvars, update_running=False)
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


class TestCheckpoint:
    def test_roundtrip_preserves_forward(self, tmp_path):
        rng = np.random.default_rng(5)
        spec = {"kind": "PF", "output_dim": 8, "rank": 4, "order": 2, "symmetric": True}
        model = models.ModelGraph.fused(spec, profile="desk", seed=5).set_mode("eval")
        x = (rng.normal(size=(2, 30, 600)), rng.normal(size=(2, 36, 30)), rng.normal(size=(2, 36, 30)))
        before = model.forward(x)
        models.save_model(model, tmp_path / "ckpt")
        loaded = models.load_model(tmp_path / "ckpt")
        after = loaded.forward(x)
        assert before.tobytes() == after.tobytes()

    def test_digest_catches_corruption(self, tmp_path):
        model = models.ModelGraph.single_modal("eeg", profile="desk", seed=6)
        models.save_model(model, tmp_path / "ckpt")
        assert models.checkpoint_digest_problems(tmp_path / "ckpt") == []
        victim = tmp_path / "ckpt" / "params" / "head1.w.ten"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        problems = models.checkpoint_digest_problems(tmp_path / "ckpt")
        assert any("head1.w" in p for p in problems)
