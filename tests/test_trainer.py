import csv

import numpy as np
import pytest

import stepbcd.trainer as trainer_mod
from stepbcd.core import Hyperparams, NetworkShape, forward_blocks, init_gaussian, make_rng
from stepbcd.dataio import Dataset
from stepbcd.prox import hardmax, step
from stepbcd.solvers import CgConfig
from stepbcd.trainer import BcdReport, bcd_iteration, check_descent, objective_f, train

from datagen import make_cluster_dataset


def objective_oracle(state, data, hp):
    """Straight-line re-implementation of the penalty objective."""
    h = len(state.W)
    n = data.X.shape[1]
    total = 0.0
    for s in range(n):
        col = state.U[h - 1][:, s]
        total += float(((data.Y[:, s] - hardmax(col)) ** 2).sum()) / (2.0 * n)
    for w in state.W:
        ncols = sum(1 for j in range(w.shape[1]) if np.any(w[:, j] != 0.0))
        total += hp.lam * ncols + 0.5 * hp.gamma * float((w ** 2).sum())
    vs = [data.X] + list(state.V)
    for i in range(h):
        total += 0.5 * hp.tau * float(((state.U[i] - state.W[i] @ vs[i]) ** 2).sum())
    for i in range(h - 1):
        total += 0.5 * hp.pi * float(((state.V[i] - step(state.U[i])) ** 2).sum())
    return total


def theory_hp(beta=0.003, tau=1.0, pi=0.5, lam=0.01, L=30, K=25):
    return Hyperparams(tau=tau, pi=pi, gamma=1.01 / beta, lam=lam, beta=beta, L=L, K=K)


class TestObjective:
    def test_all_zero_state(self):
        shape = NetworkShape((4, 8, 3))
        n = 10
        x = np.zeros((4, n))
        y = np.zeros((3, n))
        y[0] = 1.0
        data = Dataset(x, y)
        state = init_gaussian(shape, 0.01, make_rng(0), x)
        for blocks in (state.W, state.U, state.V):
            for m in blocks:
                m[:] = 0.0
        f, terms = objective_f(state, data, Hyperparams(lam=3.7))
        assert f == (3 - 1) / 2.0
        assert terms["loss"] == 1.0
        assert terms["l20"] == terms["frob"] == terms["upen"] == terms["vpen"] == 0.0

    def test_exact_fit_state(self):
        data = Dataset(np.eye(3), np.eye(3))
        state = trainer_mod.TrainState([np.eye(3)], [np.eye(3)], [])
        hp = Hyperparams(lam=0.2, gamma=0.4)
        f, terms = objective_f(state, data, hp)
        assert terms["loss"] == 0.0
        assert f == 3 * 0.2 + 0.5 * 0.4 * 3

    def test_matches_straight_line_oracle(self, tiny_data):
        shape = NetworkShape((4, 6, 5, 3))
        state = init_gaussian(shape, 0.5, make_rng(2), tiny_data.X)
        # perturb so no penalty term is trivially zero
        rng = make_rng(3)
        for m in (*state.U, *state.V):
            m += 0.3 * rng.standard_normal(m.shape)
        state.W[1][:, 2] = 0.0
        hp = Hyperparams(tau=0.7, pi=0.3, gamma=0.05, lam=0.11)
        f, _ = objective_f(state, tiny_data, hp)
        assert abs(f - objective_oracle(state, tiny_data, hp)) < 1e-12 * max(1.0, abs(f))

    def test_dimension_mismatch(self, tiny_data):
        shape = NetworkShape((4, 6, 4))
        state = init_gaussian(shape, 0.1, make_rng(4), tiny_data.X)
        with pytest.raises(ValueError):
            objective_f(state, tiny_data, Hyperparams())


class TestBcdIteration:
    def test_single_layer_degenerates(self, tiny_data):
        # h = 1: one hardmax prox and one weight step, no state blocks
        shape = NetworkShape((4, 3))
        state = init_gaussian(shape, 0.3, make_rng(5), tiny_data.X)
        hp = Hyperparams(tau=0.5, pi=0.1, gamma=0.2, lam=0.01, beta=0.05, L=3)
        out = bcd_iteration(state, tiny_data, hp)
        assert out.V == []
        ref_u = trainer_mod.prox_hardmax_matrix(state.W[0] @ tiny_data.X, tiny_data.Y, hp.tau)
        assert np.array_equal(out.U[0], ref_u)
        ref_w = trainer_mod.pgm(
            ref_u.T, tiny_data.X.T, state.W[0].T, hp.tau, hp.gamma, hp.lam, L=3, beta=0.05
        ).T
        assert np.array_equal(out.W[0], ref_w)

    def test_input_state_not_mutated(self, tiny_data):
        shape = NetworkShape((4, 6, 3))
        state = init_gaussian(shape, 0.3, make_rng(6), tiny_data.X)
        saved = state.copy()
        hp = Hyperparams(tau=0.5, pi=0.2, gamma=0.1, lam=0.01, beta=0.1, L=2)
        bcd_iteration(state, tiny_data, hp)
        for a, b in zip(state.W + state.U + state.V, saved.W + saved.U + saved.V):
            assert np.array_equal(a, b)
        # passed-in targets are only read: the list keeps its arrays and their values
        targets = [w @ x for w, x in zip(state.W, [tiny_data.X] + state.V)]
        b = list(targets)
        saved_b = [t.copy() for t in targets]
        bcd_iteration(state, tiny_data, hp, b=b)
        assert len(b) == len(targets) and all(x is y for x, y in zip(b, targets))
        for a, c in zip(b, saved_b):
            assert np.array_equal(a, c)

    def test_update_order_and_staleness(self, monkeypatch):
        """Each sub-solver must receive exactly the iterate versions of the
        update scheme: stale W/V for the prox targets, fresh upstream blocks
        for the state solve."""
        data = make_cluster_dataset(4, 3, 12, make_rng(7))
        shape = NetworkShape((4, 6, 5, 3))
        state = init_gaussian(shape, 0.4, make_rng(8), data.X)
        # leave the feasible start so every block genuinely moves below
        perturb = make_rng(70)
        for m in (*state.U, *state.V):
            m += 0.2 * perturb.standard_normal(m.shape)
        hp = Hyperparams(tau=0.05, pi=0.5, gamma=0.2, lam=0.01, beta=0.05, L=2)

        calls = {"hardmax": [], "pgm": [], "solve_v": [], "prox_step": []}
        real_hardmax = trainer_mod.prox_hardmax_matrix
        real_pgm = trainer_mod.pgm
        real_solve_v = trainer_mod.solve_v
        real_prox_step = trainer_mod.prox_step_matrix

        def spy_hardmax(b, y, tau):
            calls["hardmax"].append({"b": b.copy(), "y": y})
            return real_hardmax(b, y, tau)

        def spy_pgm(u, v, w0, tau, gamma, lam, L, beta):
            calls["pgm"].append({"u": u, "v": v, "w0": w0})
            return real_pgm(u, v, w0, tau, gamma, lam, L, beta)

        def spy_solve_v(w_next, u_next, u_cur, tau, pi, cfg, v_init):
            calls["solve_v"].append({"w_next": w_next, "u_next": u_next, "u_cur": u_cur, "v_init": v_init})
            return real_solve_v(w_next, u_next, u_cur, tau, pi, cfg, v_init)

        def spy_prox_step(v_target, b, tau, pi):
            calls["prox_step"].append({"v_target": v_target, "b": b.copy()})
            return real_prox_step(v_target, b, tau, pi)

        monkeypatch.setattr(trainer_mod, "prox_hardmax_matrix", spy_hardmax)
        monkeypatch.setattr(trainer_mod, "pgm", spy_pgm)
        monkeypatch.setattr(trainer_mod, "solve_v", spy_solve_v)
        monkeypatch.setattr(trainer_mod, "prox_step_matrix", spy_prox_step)

        old = state
        new = bcd_iteration(state, data, hp)

        # every block must actually have moved, otherwise old-vs-new is vacuous
        for a, b in zip(old.W + old.U + old.V, new.W + new.U + new.V):
            assert not np.array_equal(a, b)

        # output block: b-target from W_3^k V_2^k, both previous-sweep
        assert len(calls["hardmax"]) == 1
        assert np.array_equal(calls["hardmax"][0]["b"], old.W[2] @ old.V[1])

        # weight steps, outermost first: fresh U, stale V, warm-started at stale W
        expected_pgm = [(new.U[2], old.V[1], old.W[2]), (new.U[1], old.V[0], old.W[1]), (new.U[0], data.X, old.W[0])]
        assert len(calls["pgm"]) == 3
        for call, (u_ref, v_ref, w_ref) in zip(calls["pgm"], expected_pgm):
            assert np.shares_memory(call["u"], u_ref)
            assert np.shares_memory(call["v"], v_ref)
            assert np.shares_memory(call["w0"], w_ref)

        # state solves, i = h-1 .. 1: fresh downstream blocks, stale own U, warm start
        expected_solve = [
            (new.W[2], new.U[2], old.U[1], old.V[1]),
            (new.W[1], new.U[1], old.U[0], old.V[0]),
        ]
        assert len(calls["solve_v"]) == 2
        for call, (w_ref, u_next_ref, u_cur_ref, v_init_ref) in zip(calls["solve_v"], expected_solve):
            assert np.shares_memory(call["w_next"], w_ref)
            assert np.shares_memory(call["u_next"], u_next_ref)
            assert np.shares_memory(call["u_cur"], u_cur_ref)
            assert np.shares_memory(call["v_init"], v_init_ref)

        # pre-activation fits: fresh V target, b from stale W_i V_(i-1)
        assert len(calls["prox_step"]) == 2
        assert np.shares_memory(calls["prox_step"][0]["v_target"], new.V[1])
        assert np.array_equal(calls["prox_step"][0]["b"], old.W[1] @ old.V[0])
        assert np.shares_memory(calls["prox_step"][1]["v_target"], new.V[0])
        assert np.array_equal(calls["prox_step"][1]["b"], old.W[0] @ data.X)

    def test_fixed_point_is_preserved(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = theory_hp(K=60)
        state, report = train(
            tiny_data, shape, hp, rng=make_rng(9), cg_cfg=CgConfig(tol=1e-12)
        )
        assert report.records[-1].dw < 1e-20 and report.records[-1].dv < 1e-20
        again = bcd_iteration(state, tiny_data, hp, cg_cfg=CgConfig(tol=1e-12))
        for a, b in zip(state.W + state.U + state.V, again.W + again.U + again.V):
            assert np.linalg.norm(a - b) <= 1e-12


def _sweep_loop(data, shape, hp, rng, init_scale, warmup_batch, shuffle_rng):
    """``train`` written as a loop of public calls, none of them given ``b``."""
    state = init_gaussian(shape, init_scale, rng, data.X)
    rows = [(0, *objective_f(state, data, hp), 0.0, 0.0)]
    for k in range(1, hp.K + 1):
        if k == 1 and warmup_batch is not None:
            w = state.W
            perm = shuffle_rng.permutation(data.n)
            for start in range(0, data.n, warmup_batch):
                idx = perm[start:start + warmup_batch]
                batch = Dataset(np.ascontiguousarray(data.X[:, idx]), np.ascontiguousarray(data.Y[:, idx]))
                u, v = forward_blocks(w, batch.X)
                w = bcd_iteration(trainer_mod.TrainState(list(w), u, v), batch, hp).W
            new = trainer_mod.TrainState(w, *forward_blocks(w, data.X))
        else:
            new = bcd_iteration(state, data, hp)
        dw = sum(float(((a - b) ** 2).sum()) for a, b in zip(new.W, state.W))
        dv = sum(float(((a - b) ** 2).sum()) for a, b in zip(new.V, state.V))
        state = new
        rows.append((k, *objective_f(state, data, hp), dw, dv))
    return state, rows


class TestTrain:
    @pytest.mark.parametrize("warmup", [False, True])
    def test_carried_products_match_public_calls(self, warmup):
        # train computes each W_i V_(i-1) once and carries it; the result must
        # be bit for bit that of recomputing the products in every call.
        data = make_cluster_dataset(4, 3, 24, make_rng(21))
        shape = NetworkShape((4, 6, 8, 3))  # V_1 by Woodbury, V_0 by CG
        hp = Hyperparams(tau=0.5, pi=0.2, gamma=0.1, lam=0.01, beta=0.05, L=2, K=4)
        kw = dict(warmup_epochs=1, warmup_batch=8, shuffle_rng=make_rng(22)) if warmup else {}
        state, report = train(data, shape, hp, rng=make_rng(23), init_scale=0.3, **kw)
        ref_state, rows = _sweep_loop(data, shape, hp, make_rng(23), 0.3, 8 if warmup else None, make_rng(22))
        assert len(report.records) == len(rows) == hp.K + 1
        for rec, (k, f, terms, dw, dv) in zip(report.records, rows):
            assert (rec.k, rec.f, rec.loss, rec.l20, rec.frob, rec.upen, rec.vpen, rec.dw, rec.dv) == (
                k, f, terms["loss"], terms["l20"], terms["frob"], terms["upen"], terms["vpen"], dw, dv)
        for a, b in zip(state.W + state.U + state.V, ref_state.W + ref_state.U + ref_state.V):
            assert np.array_equal(a, b)
        assert report.records[-1].dw > 0.0 and report.records[-1].upen > 0.0

    @pytest.mark.parametrize("kw", [dict(batch_size=0), dict(batch_size=-5), dict(warmup_epochs=1, warmup_batch=-1)])
    def test_batch_size_below_one_rejected(self, tiny_data, kw):
        with pytest.raises(ValueError, match="at least 1"):
            train(tiny_data, NetworkShape((4, 8, 3)), Hyperparams(K=1), rng=make_rng(10), **kw)

    def test_k_zero_returns_initial_state(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = Hyperparams(K=0)
        state, report = train(tiny_data, shape, hp, rng=make_rng(10))
        ref = init_gaussian(shape, 0.01, make_rng(10), tiny_data.X)
        assert len(report.records) == 1
        for a, b in zip(state.W + state.U + state.V, ref.W + ref.U + ref.V):
            assert np.array_equal(a, b)

    def test_bit_identical_across_runs(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = theory_hp(K=5)
        s1, r1 = train(tiny_data, shape, hp, rng=make_rng(12))
        s2, r2 = train(tiny_data, shape, hp, rng=make_rng(12))
        for a, b in zip(s1.W + s1.U + s1.V, s2.W + s2.U + s2.V):
            assert np.array_equal(a, b)
        for x, y in zip(r1.records, r2.records):
            assert x.row()[:-1] == y.row()[:-1]  # wall time may differ

    def test_accepts_reference_hyperparameters(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = Hyperparams(K=3)  # reference constants, shortened run
        state, report = train(tiny_data, shape, hp, rng=make_rng(13))
        assert len(report.records) == 4
        assert all(np.isfinite(rec.f) for rec in report.records)

    def test_architecture_data_mismatch(self, tiny_data):
        with pytest.raises(ValueError, match="input width"):
            train(tiny_data, NetworkShape((5, 8, 3)), Hyperparams(K=1), rng=make_rng(0))
        with pytest.raises(ValueError, match="output width"):
            train(tiny_data, NetworkShape((4, 8, 4)), Hyperparams(K=1), rng=make_rng(0))

    def test_early_stop(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = theory_hp(K=50)
        _, report = train(tiny_data, shape, hp, rng=make_rng(14), early_stop_tol=1e-12)
        assert len(report.records) < 51

    def test_minibatch_mode_runs_and_is_deterministic(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = theory_hp(K=3)
        kw = dict(batch_size=8, shuffle_rng=make_rng(77))
        s1, r1 = train(tiny_data, shape, hp, rng=make_rng(15), **kw)
        kw = dict(batch_size=8, shuffle_rng=make_rng(77))
        s2, r2 = train(tiny_data, shape, hp, rng=make_rng(15), **kw)
        for a, b in zip(s1.W, s2.W):
            assert np.array_equal(a, b)
        # the coupling penalties are zero by construction in stateless mode
        assert r1.records[-1].upen == 0.0 and r1.records[-1].vpen == 0.0

    def test_derived_step_size_changes_the_run(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = Hyperparams(K=2, lam=0.0)
        s_fixed, _ = train(tiny_data, shape, hp, rng=make_rng(20))
        s_derived, _ = train(tiny_data, shape, hp, rng=make_rng(20), derive_beta=True)
        assert any(not np.array_equal(a, b) for a, b in zip(s_fixed.W, s_derived.W))
        for w in s_derived.W:
            assert np.all(np.isfinite(w))

    def test_warmup_epochs_change_the_run(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = Hyperparams(K=4)
        s_plain, _ = train(tiny_data, shape, hp, rng=make_rng(16), shuffle_rng=make_rng(1))
        s_warm, _ = train(
            tiny_data, shape, hp, rng=make_rng(16), warmup_epochs=2, warmup_batch=8, shuffle_rng=make_rng(1)
        )
        assert any(not np.array_equal(a, b) for a, b in zip(s_plain.W, s_warm.W))


class TestDescent:
    def test_theory_regime_descends(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = theory_hp(K=50)
        _, report = train(tiny_data, shape, hp, rng=make_rng(17), cg_cfg=CgConfig(tol=1e-12))
        ok, worst = check_descent(report, hp, tol=1e-9)
        assert ok, f"descent violated by {worst}"
        f = report.f_values
        assert all(b <= a + 1e-9 for a, b in zip(f, f[1:]))
        assert all(v >= 0.0 for v in f)
        assert abs(f[-1] - f[-2]) < 1e-10  # the logged sequence converges
        assert report.records[-1].dw < 1e-8 and report.records[-1].dv < 1e-8

    def test_constant_report_passes(self):
        from stepbcd.trainer import BcdRecord

        recs = [BcdRecord(k, 1.0, 1.0, 0, 0, 0, 0, 0.0, 0.0, 0.0) for k in range(3)]
        ok, worst = check_descent(BcdReport(recs), Hyperparams())
        assert ok and worst <= 0.0

    def test_reference_regime_is_diagnostic_only(self, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = Hyperparams(K=3)  # gamma < 1/beta here
        _, report = train(tiny_data, shape, hp, rng=make_rng(18))
        ok, worst = check_descent(report, hp)
        assert isinstance(ok, bool) and isinstance(worst, float)

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            check_descent(BcdReport([]), Hyperparams())


class TestReportCsv:
    def test_round_trip(self, tmp_path, tiny_data):
        shape = NetworkShape((4, 8, 3))
        hp = theory_hp(K=4)
        _, report = train(tiny_data, shape, hp, rng=make_rng(19))
        path = tmp_path / "report.csv"
        report.to_csv(path)
        with open(path, newline="") as f:
            header, *rows = csv.reader(f)
        assert tuple(header) == trainer_mod.REPORT_FIELDS
        assert len(rows) == len(report.records) == 5
        for rec, row in zip(report.records, rows):
            assert (int(row[0]), *map(float, row[1:])) == rec.row()
