import numpy as np
import pytest

from nclsim import scenarios as sc
from nclsim.errors import ConfigError


@pytest.fixture(autouse=True)
def _one_worker(monkeypatch):
    """Sweeps run in this process unless a test sets NCLSIM_WORKERS itself."""
    monkeypatch.setenv("NCLSIM_WORKERS", "1")


def _small_evolve_config(**over):
    base = sc.ScenarioConfig(
        name="unit",
        dim=24,
        gamma_linear=1.0,
        gamma_nonlinear=0.2,
        gadget=sc.GadgetSpec(kind="ncl", f_name="x-1"),
        initial="coherent:1.5",
        solver=sc.SolverSpec(method="propagate", t_grid=("log", 1e-3, 0.5, 30)),
        sweep=sc.SweepSpec("alpha", (1.0, 1.5)),
        output=sc.OutputSpec(timeseries=True, distribution_at="min_q"),
    )
    return sc.ScenarioConfig(**{**base.__dict__, **over}) if over else base


def test_run_sweep_timeseries_points():
    res = sc.run_sweep(_small_evolve_config())
    assert [p.sweep_value for p in res.points] == [1.0, 1.5]
    for p in res.points:
        assert p.error is None
        assert p.kind == "timeseries"
        assert len(p.reports) == len(p.times) == 31
        assert p.distribution is not None
        assert p.trace_error.max() <= 1e-8
    assert res.provenance["version"]
    assert res.provenance["config"]["dim"] == 24


def test_sweep_order_independence():
    cfg_fwd = _small_evolve_config()
    cfg_rev = sc.ScenarioConfig(
        **{**cfg_fwd.__dict__, "sweep": sc.SweepSpec("alpha", (1.5, 1.0))}
    )
    fwd = sc.run_sweep(cfg_fwd)
    rev = sc.run_sweep(cfg_rev)
    by_val_fwd = {p.sweep_value: p for p in fwd.points}
    by_val_rev = {p.sweep_value: p for p in rev.points}
    for v in (1.0, 1.5):
        qa = [r.mandel_q for r in by_val_fwd[v].reports]
        qb = [r.mandel_q for r in by_val_rev[v].reports]
        assert qa == qb  # bit-identical, not merely close


def test_single_value_sweep_equals_single_run():
    cfg = _small_evolve_config()
    single = sc.ScenarioConfig(**{**cfg.__dict__, "sweep": sc.SweepSpec("alpha", (1.5,))})
    swept = sc.run_sweep(single).points[0]
    direct = sc.run_point(cfg, 1.5)
    assert swept.sweep_value == direct.sweep_value == 1.5
    assert [r.mandel_q for r in swept.reports] == [r.mandel_q for r in direct.reports]


def test_unknown_method_is_a_config_error_in_validation_and_point_execution():
    cfg = _small_evolve_config(solver=sc.SolverSpec(method="bogus"))
    for run in (cfg.validate, lambda: sc.run_point(cfg, 1.5)):
        with pytest.raises(ConfigError, match="unknown solver method 'bogus'"):
            run()


def test_per_point_failure_isolation():
    cfg = _small_evolve_config()
    bad = sc.ScenarioConfig(**{**cfg.__dict__, "sweep": sc.SweepSpec("alpha", (1.0, 4.0))})
    res = sc.run_sweep(bad)  # alpha=4 breaks the dim=24 truncation guard
    assert res.points[0].error is None
    assert res.points[1].error is not None
    assert "TruncationLeakage" in res.points[1].error


def test_resolve_point_semantics():
    cfg = _small_evolve_config()
    r = sc.resolve_point(cfg, 2.5)
    assert r.initial == "coherent:2.5"
    cfg2 = sc.ScenarioConfig(**{**cfg.__dict__, "sweep": sc.SweepSpec("alpha0", (7.0,))})
    assert sc.resolve_point(cfg2, 7.0).omega == pytest.approx(7.0 * cfg.gamma_nonlinear)
    cfg3 = sc.ScenarioConfig(**{**cfg.__dict__, "sweep": sc.SweepSpec("epsilon", (3.0,))})
    assert sc.resolve_point(cfg3, 3.0).gamma_linear == pytest.approx(3.0 * cfg.gamma_nonlinear)
    proj = sc.GadgetSpec(kind="projector", target="fock:2", source="coherent:1.0", k=2)
    cfg4 = sc.ScenarioConfig(**{**cfg.__dict__, "gadget": proj})
    assert sc.resolve_point(cfg4, 2.0).gadget.source == "coherent:2.0"


def test_steady_method_and_distribution_selection():
    cfg = sc.ScenarioConfig(
        name="unit-steady",
        dim=16,
        gamma_linear=0.3,
        gamma_nonlinear=1.0,
        gadget=sc.GadgetSpec(kind="ncl", f_name="x-1"),
        solver=sc.SolverSpec(method="steady"),
        sweep=sc.SweepSpec("alpha0", (2.0, 3.0)),
        output=sc.OutputSpec(timeseries=False, distribution_at="value:3.0"),
    )
    res = sc.run_sweep(cfg)
    assert [p.distribution is not None for p in res.points] == [False, True]


def test_recurrence_methods():
    cfg = sc.ScenarioConfig(
        name="unit-rec",
        dim=120,
        gamma_linear=0.0,
        gamma_nonlinear=1.0,
        omega=1e4,
        gadget=sc.GadgetSpec(kind="ncl", f_name="x-1"),
        solver=sc.SolverSpec(method="recurrence_ncl", recurrence_start=1),
        sweep=sc.SweepSpec("none", ()),
        output=sc.OutputSpec(timeseries=False),
    )
    res = sc.run_sweep(cfg)
    q = res.points[0].steady_report.mandel_q
    assert -0.85 <= q <= -0.75
    cfg_t = sc.ScenarioConfig(
        name="unit-rec-t",
        dim=48,
        gamma_linear=1.0,
        gamma_nonlinear=0.2,
        nbar=2.0,
        gadget=sc.GadgetSpec(kind="ncl", f_name="(x-1)^3"),
        solver=sc.SolverSpec(method="recurrence_thermal"),
        sweep=sc.SweepSpec("nbar", (1.0, 2.0)),
        output=sc.OutputSpec(timeseries=False),
    )
    res_t = sc.run_sweep(cfg_t)
    assert all(p.error is None for p in res_t.points)
    assert res_t.points[1].steady_report.mandel_q < 0
    # undriven from the vacuum: the mean is 0, so Q is undefined, not an error
    start_0 = sc.SolverSpec(method="recurrence_ncl", recurrence_start=0)
    cfg_0 = sc.ScenarioConfig(**{**cfg.__dict__, "omega": 0.0, "solver": start_0})
    vacuum = sc.run_sweep(cfg_0).points[0]
    assert vacuum.error is None
    assert np.isnan(vacuum.steady_report.mandel_q)
    assert vacuum.steady_report.mean_n == 0.0 and vacuum.steady_report.purity == 1.0


def test_preset_is_pure_data():
    label, config = sc.expand_preset("fig2d")[0]
    direct = sc.run_sweep(config)
    preset = sc.run_preset("fig2d")["main"]
    qa = [p.steady_report.mandel_q for p in direct.points]
    qb = [p.steady_report.mandel_q for p in preset.points]
    assert qa == qb


def test_preset_encodings():
    fig1a = dict(sc.expand_preset("fig1a"))["main"]
    assert fig1a.gadget.kind == "projector"
    assert fig1a.gadget.target == "fock:2" and fig1a.gadget.k == 2
    assert fig1a.sweep.values == (2.0, 3.0, 4.0, 5.0)
    assert fig1a.gamma_nonlinear == pytest.approx(fig1a.gamma_linear / 5.0)
    assert fig1a.nbar == 0.0

    fig1c = dict(sc.expand_preset("fig1c"))["main"]
    assert fig1c.gadget.f_name == "x-1"
    assert fig1c.sweep.values == (2.0, 4.0, 6.0, 8.0)
    assert fig1c.dim == 130

    fig2a = sc.expand_preset("fig2a")
    assert [label for label, _ in fig2a] == ["eps1", "eps5", "eps10"]
    for (label, cfg), eps in zip(fig2a, (1.0, 5.0, 10.0)):
        assert cfg.gamma_linear == pytest.approx(eps * cfg.gamma_nonlinear)
        assert cfg.sweep.parameter == "alpha0"
        assert cfg.sweep.values[-1] == pytest.approx(150.0)
        assert cfg.output.distribution_at == "value:150.0"

    fig2b = sc.expand_preset("fig2b")
    assert [label for label, _ in fig2b] == ["exact", "approx"]
    assert fig2b[1][1].solver.method == "steady_approx"

    fig2d = dict(sc.expand_preset("fig2d"))["main"]
    assert fig2d.omega == 0.0
    assert fig2d.gadget.f_name == "(x-1)^3"
    assert fig2d.gamma_nonlinear / fig2d.gamma_linear == pytest.approx(0.2)
    vals = np.array(fig2d.sweep.values)
    assert vals.min() > 0 and vals.max() == pytest.approx(10.0)

    with pytest.raises(ConfigError):
        sc.expand_preset("fig3z")


def test_preflight_accepts_every_preset():
    for name in sc.PRESET_NAMES:
        for _, config in sc.expand_preset(name):
            sc.preflight(config)


def test_preflight_rejects_bad_configs():
    bad_rate = sc.ScenarioConfig(name="x", dim=8, gamma_linear=-0.5)
    with pytest.raises(ConfigError):
        sc.preflight(bad_rate)
    from nclsim.errors import TruncationLeakageError

    bad_guard = _small_evolve_config()
    bad_guard = sc.ScenarioConfig(
        **{**bad_guard.__dict__, "sweep": sc.SweepSpec("alpha", (5.0,))}
    )
    with pytest.raises(TruncationLeakageError):
        sc.preflight(bad_guard)


def test_apply_overrides():
    cfg = _small_evolve_config()
    out = sc.apply_overrides(cfg, {"dim": "30", "values": "1.0", "tol": "1e-8"})
    assert out.dim == 30 and out.sweep.values == (1.0,) and out.solver.tol == 1e-8
    ranged = sc.apply_overrides(cfg, {"values": "lin:0.25:1:4"})
    assert ranged.sweep.values == (0.25, 0.5, 0.75, 1.0)
    with pytest.raises(ConfigError, match="override values='geom:0:1:3'"):
        sc.apply_overrides(cfg, {"values": "geom:0:1:3"})
    with pytest.raises(ConfigError):
        sc.apply_overrides(cfg, {"nope": "1"})


def test_parallel_workers_match_serial(monkeypatch):
    cfg = _small_evolve_config()
    serial = sc.run_sweep(cfg)
    monkeypatch.setenv("NCLSIM_WORKERS", "2")
    parallel = sc.run_sweep(cfg)
    for a, b in zip(serial.points, parallel.points):
        assert [r.mandel_q for r in a.reports] == [r.mandel_q for r in b.reports]
