"""Fusion layer algebra: block identities, CP reconstruction equivalence,
symmetric weight sharing and parameter counting."""

import numpy as np
import pytest

from trifuse import autodiff as ad
from trifuse import verify
from trifuse.fusion import (
    MATERIALIZE_LIMIT,
    FusionSpec,
    FusionSpecError,
    MaterializeError,
    fuse,
    init_fusion_params,
    param_count,
    reconstruct_full,
)

REFERENCE_DIMS = (120, 144, 144)


class TestLinearFusion:
    def test_one_hot_selection(self):
        w = np.zeros((3, 1))
        w[0, 0] = 2.0
        y = fuse(FusionSpec("LF", (1, 1, 1), 1), {"w": w}, np.array([1.0]), np.array([0.0]), np.array([0.0]))
        assert np.array_equal(y, [2.0])

    def test_zero_features_zero_output(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(10, 4))
        y = fuse(FusionSpec("LF", (3, 3, 4), 4), {"w": w}, np.zeros(3), np.zeros(3), np.zeros(4))
        assert np.array_equal(y, np.zeros(4))  # no bias in fusion

    def test_block_sum_identity(self):
        ok, detail = verify.check_lf_block_identity()
        assert ok, detail

    def test_dimension_mismatch(self):
        with pytest.raises(FusionSpecError):
            fuse(FusionSpec("LF", (2, 2, 2), 3), {"w": np.zeros((7, 3))}, *[np.zeros(2)] * 3)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(9, 5))
        spec = FusionSpec("LF", (2, 3, 4), 5)
        zs = [rng.normal(size=(6, d)) for d in (2, 3, 4)]
        batched = fuse(spec, {"w": w}, *zs)
        for i in range(6):
            row = fuse(spec, {"w": w}, zs[0][i], zs[1][i], zs[2][i])
            assert np.allclose(batched[i], row, rtol=1e-13)


class TestTensorFusion:
    def test_hand_outer_product(self):
        y = fuse(FusionSpec("TF", (2, 1, 1), 1, path="full"), {"w_full": np.ones((2, 1, 1, 1))},
                 np.array([1.0, 2.0]), np.array([3.0]), np.array([2.0]))
        assert np.array_equal(y, [18.0])  # 1*3*2 + 2*3*2

    def test_zero_modality_annihilates(self):
        rng = np.random.default_rng(2)
        params = {"w_full": rng.normal(size=(3, 2, 2, 4))}
        spec = FusionSpec("TF", (3, 2, 2), 4, path="full")
        y = fuse(spec, params, rng.normal(size=3), np.zeros(2), rng.normal(size=2))
        assert np.allclose(y, 0.0, atol=1e-15)

    def test_full_rank_reconstruction(self):
        # rank 48 on 4x4x4 inputs: factorized equals contraction with the
        # reconstructed dense tensor
        rng = np.random.default_rng(3)
        spec = FusionSpec("TF", (4, 4, 4), 3, rank=48)
        params = {k: rng.normal(size=v.shape) for k, v in init_fusion_params(spec, rng).items()}
        w = reconstruct_full(spec, params)
        zs = [rng.normal(size=4) for _ in range(3)]
        y_fac = fuse(spec, params, *zs)
        y_full = fuse(FusionSpec("TF", (4, 4, 4), 3, path="full"), {"w_full": w}, *zs)
        assert np.max(np.abs(y_fac - y_full)) / np.max(np.abs(y_full)) < 1e-8

    def test_reconstruction_grid(self):
        ok, detail = verify.check_reconstruction_tf()
        assert ok, detail

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(4)
        spec = FusionSpec("TF", (3, 4, 2), 5, rank=6)
        params = init_fusion_params(spec, rng)
        zs = [rng.normal(size=d) for d in spec.input_dims]
        base = fuse(spec, params, *zs)
        scaled = fuse(spec, params, 3.5 * zs[0], zs[1], zs[2])
        assert np.allclose(scaled, 3.5 * base, rtol=1e-10)

    def test_materialization_guard(self):
        spec = FusionSpec("TF", REFERENCE_DIMS, 128, path="full")
        with pytest.raises(MaterializeError):
            init_fusion_params(spec, np.random.default_rng(0))
        assert spec.full_entries() == 318504960 > MATERIALIZE_LIMIT

    def test_guard_skips_the_power_for_a_huge_pf_order(self):
        # 3**(10**18) would never finish; any order past the guard's bit length is over it
        with pytest.raises(MaterializeError, match=r"3\*\*1000000000000000000 x 1 entries"):
            FusionSpec("PF", (1, 1, 1), 1, order=10**18, path="full").check_materializable()
        with pytest.raises(MaterializeError, match="94143178827 entries"):
            FusionSpec("PF", (1, 1, 1), 1, order=23, path="full").check_materializable()
        FusionSpec("PF", (1, 1, 1), 1, order=14, path="full").check_materializable()


class TestPolynomialFusion:
    def test_order_one_reduces_to_linear(self):
        rng = np.random.default_rng(5)
        dims = (2, 3, 4)
        w = rng.normal(size=(9, 5))
        spec = FusionSpec("PF", dims, 5, order=1, path="full")
        zs = [rng.normal(size=d) for d in dims]
        y_pf = fuse(spec, {"w_full": w}, *zs)
        y_lf = fuse(FusionSpec("LF", dims, 5), {"w": w}, *zs)
        assert np.allclose(y_pf, y_lf, rtol=1e-13)

    def test_all_ones_collapse_to_power_of_sum(self):
        # with all-ones weights the fused value is (sum of the concat vector)^p
        zs = [np.array([1.0]), np.array([2.0]), np.array([3.0])]
        for p in (2, 3):
            spec = FusionSpec("PF", (1, 1, 1), 1, order=p, path="full")
            y = fuse(spec, {"w_full": np.ones((3,) * p + (1,))}, *zs)
            assert np.isclose(y[0], 6.0**p, rtol=1e-12)

    def test_full_vs_factorized_rank36(self):
        rng = np.random.default_rng(6)
        dims = (2, 2, 2)
        spec = FusionSpec("PF", dims, 2, rank=36, order=2)
        params = {k: rng.normal(size=v.shape) for k, v in init_fusion_params(spec, rng).items()}
        w = reconstruct_full(spec, params)
        zs = [rng.normal(size=d) for d in dims]
        y_fac = fuse(spec, params, *zs)
        full_spec = FusionSpec("PF", dims, 2, order=2, path="full")
        y_full = fuse(full_spec, {"w_full": w}, *zs)
        assert np.max(np.abs(y_fac - y_full)) / np.max(np.abs(y_full)) < 1e-8

    def test_nine_block_expansion(self):
        ok, detail = verify.check_pf2_block_expansion()
        assert ok, detail

    def test_reconstruction_grid(self):
        ok, detail = verify.check_reconstruction_pf()
        assert ok, detail

    def test_scaling_homogeneity_degree_p(self):
        rng = np.random.default_rng(7)
        for p in (1, 2, 3):
            spec = FusionSpec("PF", (2, 2, 2), 3, rank=4, order=p, symmetric=True)
            params = init_fusion_params(spec, rng)
            zs = [rng.normal(size=2) for _ in range(3)]
            base = fuse(spec, params, *zs)
            scaled = fuse(spec, params, *(1.7 * z for z in zs))
            assert np.allclose(scaled, 1.7**p * base, rtol=1e-9)

    def test_symmetric_gradient_equals_summed_clone_gradients(self):
        # one shared factor receives the sum of the per-position gradients an
        # unshared layer would give to p identical factors
        rng = np.random.default_rng(8)
        p = 3
        sym = FusionSpec("PF", (2, 2, 2), 4, rank=5, order=p, symmetric=True)
        sym_params = init_fusion_params(sym, rng)
        zs = [rng.normal(size=2) for _ in range(3)]

        tape = ad.Tape()
        shared = tape.variable(sym_params["factor"])
        mix = tape.variable(sym_params["mix"])
        y = fuse(sym, {"factor": shared, "mix": mix}, *zs)
        ad.backward(tape, ad.sum_all(ad.mul(y, y)))
        shared_grad = shared.grad

        unshared = FusionSpec("PF", (2, 2, 2), 4, rank=5, order=p, symmetric=False)
        tape2 = ad.Tape()
        clones = {f"factor{k}": tape2.variable(sym_params["factor"].copy()) for k in range(1, p + 1)}
        clones["mix"] = tape2.variable(sym_params["mix"].copy())
        y2 = fuse(unshared, clones, *zs)
        ad.backward(tape2, ad.sum_all(ad.mul(y2, y2)))
        summed = sum(clones[f"factor{k}"].grad for k in range(1, p + 1))
        assert np.allclose(shared_grad, summed, rtol=1e-11)

    def test_augment_one_adds_lower_order_terms(self):
        # a pure degree-2 layer cannot represent a linear function; with the
        # constant-1 extension it can
        rng = np.random.default_rng(9)
        spec = FusionSpec("PF", (1, 1, 1), 1, order=2, path="full", augment_one=True)
        d = spec.concat_dim
        assert d == 4
        w = np.zeros((d, d, 1))
        w[0, 1, 0] = 1.0  # the (1 x z1) cross term is exactly z1
        zs = [np.array([v]) for v in (2.5, -1.0, 3.0)]
        y = fuse(spec, {"w_full": w}, *zs)
        assert np.isclose(y[0], 2.5)

    def test_guard_on_full_path(self):
        spec = FusionSpec("PF", REFERENCE_DIMS, 128, order=5, path="full")
        with pytest.raises(MaterializeError):
            init_fusion_params(spec, np.random.default_rng(0))


class TestReconstruct:
    def test_rank_one_constant(self):
        spec = FusionSpec("PF", (1, 1, 1), 2, rank=1, order=2, symmetric=True)
        params = {"factor": np.ones((3, 1, 2)), "mix": np.array([4.0])}
        w = reconstruct_full(spec, params)
        assert w.shape == (3, 3, 2)
        assert np.allclose(w, 4.0)

    def test_order_one_base_case(self):
        rng = np.random.default_rng(10)
        spec = FusionSpec("PF", (2, 1, 1), 3, rank=5, order=1)
        params = {"factor1": rng.normal(size=(4, 5, 3)), "mix": rng.normal(size=5)}
        w = reconstruct_full(spec, params)
        ref = np.einsum("iro,r->io", params["factor1"], params["mix"])
        assert np.allclose(w, ref, rtol=1e-13)

    def test_central_oracle_outer_power_contraction(self):
        rng = np.random.default_rng(11)
        spec = FusionSpec("PF", (2, 2, 1), 2, rank=3, order=3, symmetric=True)
        params = {k: rng.normal(size=v.shape) for k, v in init_fusion_params(spec, rng).items()}
        w = reconstruct_full(spec, params)
        zs = [rng.normal(size=d) for d in spec.input_dims]
        zc = np.concatenate(zs)
        zp = np.einsum("i,j,k->ijk", zc, zc, zc)
        y_ref = np.tensordot(zp, w, axes=([0, 1, 2], [0, 1, 2]))
        y_fac = fuse(spec, params, *zs)
        assert np.max(np.abs(y_fac - y_ref)) / np.max(np.abs(y_ref)) < 1e-8

    def test_guard(self):
        spec = FusionSpec("PF", REFERENCE_DIMS, 128, rank=2, order=3)
        with pytest.raises(MaterializeError):
            reconstruct_full(spec, {})


class TestParamCount:
    def test_reference_dimension_values(self):
        assert param_count(FusionSpec("LF", REFERENCE_DIMS, 128)) == 52224
        assert param_count(FusionSpec("TF", REFERENCE_DIMS, 128, path="full")) == 318504960
        assert param_count(FusionSpec("TF", REFERENCE_DIMS, 128, rank=16)) == 835600
        assert param_count(FusionSpec("PF", REFERENCE_DIMS, 128, rank=16, order=5, symmetric=True)) == 835600
        assert param_count(FusionSpec("PF", REFERENCE_DIMS, 128, rank=16, order=5)) == 4177936

    def test_randomized_specs_match_allocation(self):
        ok, detail = verify.check_param_counts(n_random=80)
        assert ok, detail


class TestSpecValidation:
    def test_kind_checked(self):
        with pytest.raises(FusionSpecError):
            FusionSpec("XX", (1, 1, 1), 2)

    def test_symmetric_only_for_pf(self):
        with pytest.raises(FusionSpecError):
            FusionSpec("TF", (1, 1, 1), 2, symmetric=True)

    def test_order_positive(self):
        with pytest.raises(FusionSpecError):
            FusionSpec("PF", (1, 1, 1), 2, order=0)

    def test_dispatcher_routes_by_kind(self):
        rng = np.random.default_rng(12)
        for kind in ("LF", "TF", "PF"):
            spec = FusionSpec(kind, (2, 2, 2), 3, rank=2, order=2)
            params = init_fusion_params(spec, rng)
            y = fuse(spec, params, *(rng.normal(size=2) for _ in range(3)))
            assert y.shape == (3,)
