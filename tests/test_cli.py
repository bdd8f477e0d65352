import json
import math
import os
import re
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csvortex.cli import main
from csvortex.config import RunOpts, load_config
from csvortex.errors import ConfigError, CsvortexError
from csvortex.fields import read_field, write_field
from csvortex.model import MAX_SPECIES
from csvortex.plane import PlaneOperator
from csvortex.torus import TorusOperator


def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def read_cfg(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def plane_cfg(tmp_path):
    cfg = {
        "schema_version": 1,
        "mode": "plane",
        "params": {"alpha": 1.0, "beta": 1.0, "species": 1, "lambda_bg": 2.0},
        "domain": {"kind": "box", "half_width": 8.0, "n": 64},
        "vortices": [{"species": 0, "x": 0.0, "y": 0.0}],
        "opts": {"tol": 1e-9, "quantized_tol": 0.01},
    }
    return write_cfg(tmp_path / "plane.json", cfg)


@pytest.fixture
def torus_cfg(tmp_path):
    cfg = {
        "schema_version": 1,
        "mode": "torus",
        "params": {"alpha": 30.0, "beta": 45.0, "sigma": 2.0},
        "domain": {"kind": "torus", "periods": [6.283185307179586, 6.283185307179586],
                   "n": [64, 64]},
        "vortices": [{"species": 0, "x": 3.141592653589793, "y": 3.141592653589793}],
        "opts": {"tol": 1e-10},
    }
    return write_cfg(tmp_path / "torus.json", cfg)


_BASE_CONFIGS = (
    {"schema_version": 1, "mode": "plane",
     "params": {"alpha": 1.0, "beta": 1.0, "species": 1, "lambda_bg": 2.0},
     "domain": {"kind": "box", "half_width": 8.0, "n": 16},
     "vortices": [{"species": 0, "x": 0.0, "y": 0.0}],
     "opts": {"tol": 1e-9, "quantized_tol": 0.01}, "decay_center": [0.0, 0.0]},
    {"schema_version": 1, "mode": "torus",
     "params": {"alpha": 30.0, "beta": 45.0, "sigma": 2.0},
     "domain": {"kind": "torus", "periods": [6.28, 6.28], "n": [16, 16]},
     "vortices": [{"species": 0, "x": 3.14, "y": 3.14, "multiplicity": 1}],
     "opts": {"tol": 1e-10, "lam_t": 100.0, "second_solution": True}},
)

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000)
    | st.floats(-1e3, 1e3, allow_nan=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


@st.composite
def _garbled_configs(draw):
    """Bytes of a config file: a valid config with values replaced or
    deleted, possibly cut short, or random JSON, or random bytes."""
    kind = draw(st.sampled_from(("edit", "cut", "json", "bytes")))
    if kind == "bytes":
        return draw(st.binary(max_size=60))
    if kind == "json":
        return json.dumps(draw(_JSON_VALUES)).encode()
    cfg = json.loads(json.dumps(draw(st.sampled_from(_BASE_CONFIGS))))
    for _ in range(draw(st.integers(1, 3))):
        block = cfg
        while True:
            if isinstance(block, list) and block:
                key = draw(st.integers(0, len(block) - 1))
            elif isinstance(block, dict) and block:
                key = draw(st.sampled_from(sorted(block)))
            else:
                break
            if isinstance(block[key], (dict, list)) and draw(st.booleans()):
                block = block[key]
                continue
            if draw(st.booleans()):
                block[key] = draw(_JSON_VALUES)
            else:
                del block[key]
            break
    text = json.dumps(cfg)
    if kind == "cut":
        text = text[:draw(st.integers(0, len(text)))]
    return text.encode()


# values the config used to coerce silently (a string to a boolean, a string
# or a three-list to a point, a fraction or a boolean to a count), with the
# key each refusal names
_COERCIONS = [
    ({"opts": {"tol": 1e-9, "second_solution": "false"}}, "opts.second_solution"),
    ({"decay_center": "12"}, "decay_center"),
    ({"decay_center": [1, 2, 3]}, "decay_center"),
    ({"vortices": [{"species": 0, "x": 0.0, "y": 0.0, "multiplicity": 1.9}]},
     "vortices[0].multiplicity"),
    ({"domain": {"kind": "box", "half_width": 8.0, "n": 32.7}}, "domain.n"),
    ({"params": {"alpha": 1.0, "beta": 1.0, "species": 1.5}}, "params.species"),
    ({"params": {"alpha": 1.0, "beta": 1.0, "species": True}}, "params.species"),
    ({"opts": {"tol": 1e-9, "max_iter": 10.9}}, "opts.max_iter"),
]


class TestConfigErrors:
    def test_malformed_json_names_line(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "schema_version": 1,\n  "mode": plane\n}')
        assert main(["solve-plane", "--config", str(p)]) == 1
        out = capsys.readouterr().out
        assert "line 3" in out

    def test_missing_field(self, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.json", {"schema_version": 1, "mode": "plane"})
        assert main(["solve-plane", "--config", str(p)]) == 1
        assert "params" in capsys.readouterr().out

    def test_bad_schema_version(self, tmp_path):
        p = write_cfg(tmp_path / "c.json", {"schema_version": 99, "mode": "plane",
                                            "params": {"alpha": 1, "beta": 1}})
        assert main(["solve-plane", "--config", str(p)]) == 1

    def test_mode_mismatch(self, plane_cfg):
        assert main(["solve-torus", "--config", plane_cfg]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["solve-plane", "--config", str(tmp_path / "nope.json")]) == 1

    def test_torus_mode_requires_beta_above_alpha(self, tmp_path):
        cfg = {"schema_version": 1, "mode": "torus",
               "params": {"alpha": 2.0, "beta": 1.0},
               "vortices": []}
        p = write_cfg(tmp_path / "c.json", cfg)
        assert main(["solve-torus", "--config", p]) == 1

    def test_non_square_torus_cells_refused_before_the_solve(self, torus_cfg, tmp_path,
                                                             capsys, monkeypatch):
        import csvortex.cli as cli_mod

        def unreachable(*args, **kwargs):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(cli_mod, "minimize_torus", unreachable)
        cfg = read_cfg(torus_cfg)
        cfg["domain"] = {"kind": "torus", "periods": [6.283185307179586, 12.566370614359172],
                         "n": [32, 32]}
        p = write_cfg(tmp_path / "aspect.json", cfg)
        assert main(["solve-torus", "--config", p, "--out", str(tmp_path / "o")]) == 1
        assert "cell aspect must be uniform" in capsys.readouterr().out
        # the same cell with square grid cells parses
        cfg["domain"]["n"] = [32, 64]
        assert load_config(write_cfg(tmp_path / "square.json", cfg)).domain.shape == (32, 64)


    @pytest.mark.parametrize("garble", [
        {"vortices": [3]},
        {"domain": [64, 64]},
        {"opts": "fast"},
        {"decay_center": 2.0},
        {"decay_center": [1.0]},
        {"domain": {"kind": "box", "half_width": 8.0, "n": "sixty-four"}},
        {"domain": {"kind": "box", "half_width": 8.0, "n": 1e400}},
        {"opts": {"tol": "tight"}},
        *[garble for garble, _ in _COERCIONS],
    ])
    def test_wrong_json_types_exit_one(self, plane_cfg, tmp_path, capsys, garble):
        cfg = read_cfg(plane_cfg)
        cfg.update(garble)
        p = tmp_path / "garbled.json"
        p.write_text(json.dumps(cfg))
        assert main(["solve-plane", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().out

    @pytest.mark.parametrize("garble, key", _COERCIONS)
    def test_refused_coercions_name_the_key(self, plane_cfg, tmp_path, garble, key):
        cfg = read_cfg(plane_cfg)
        cfg.update(garble)
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(write_cfg(tmp_path / "garbled.json", cfg))

    def test_integral_floats_still_parse(self, plane_cfg, tmp_path):
        cfg = read_cfg(plane_cfg)
        cfg["domain"]["n"] = 64.0
        cfg["opts"]["max_iter"] = 10.0
        loaded = load_config(write_cfg(tmp_path / "c.json", cfg))
        assert (loaded.domain.n1, loaded.opts.max_iter) == (64, 10)

    def test_unreadable_config_or_output_dir_exit_one(self, plane_cfg, tmp_path,
                                                      monkeypatch):
        monkeypatch.delenv("CSVORTEX_OUT", raising=False)
        assert main(["verify", "--config", str(tmp_path)]) == 1
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{")
        assert main(["verify", "--config", str(binary)]) == 1
        cfg = read_cfg(plane_cfg)
        cfg["opts"]["out_dir"] = ""
        assert main(["verify", "--config", write_cfg(tmp_path / "c.json", cfg)]) == 1

    @pytest.mark.parametrize("override", [
        ["--grid", "0"], ["--tol", "0"], ["--max-iter", "0"], ["--out", ""],
    ])
    def test_zero_valued_overrides_are_applied(self, plane_cfg, tmp_path, monkeypatch,
                                               override):
        # each override must reach the config and fail its check there; a
        # dropped override would run the config's own 64² solve and exit 0
        monkeypatch.delenv("CSVORTEX_OUT", raising=False)
        argv = ["solve-plane", "--config", plane_cfg, "--out", str(tmp_path / "o")]
        assert main(argv + override) == 1

    @pytest.mark.parametrize("opts", [{"tol": 0.0}, {"tol": -1e-9}, {"max_iter": 0}])
    def test_nonpositive_tol_or_max_iter_in_config_exit_one(self, plane_cfg, tmp_path,
                                                            capsys, opts):
        cfg = read_cfg(plane_cfg)
        cfg["opts"].update(opts)
        p = write_cfg(tmp_path / "c.json", cfg)
        assert main(["solve-plane", "--config", p, "--out", str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().out

    @pytest.mark.parametrize("mode, path, value, code", [
        ("plane", ("params", "lambda_bg"), math.inf, 1),
        ("plane", ("params", "alpha"), math.inf, 1),
        ("plane", ("domain", "half_width"), math.inf, 1),
        ("plane", ("opts", "tol"), math.inf, 1),
        ("plane", ("decay_center",), [math.nan, 0.0], 1),
        ("torus", ("domain", "periods"), [math.inf, math.inf], 1),
        ("torus", ("opts", "tol"), math.inf, 1),
        ("torus", ("decay_center",), [math.nan, 0.0], 1),
        # a NaN or negative flux tolerance would fail every flux check after
        # the solve, and an infinite one would pass every check
        ("plane", ("opts", "quantized_tol"), math.nan, 1),
        ("plane", ("opts", "quantized_tol"), -1.0, 1),
        ("plane", ("opts", "quantized_tol"), math.inf, 1),
        ("torus", ("opts", "quantized_tol"), math.nan, 1),
        # finite, but the cell size cannot be squared or inverted
        ("plane", ("domain", "half_width"), 1e300, 1),
        ("plane", ("domain", "half_width"), 1e-300, 1),
        ("torus", ("domain", "periods"), [1e300, 1e300], 1),
        # finite, but the background profiles or the exponentials of the
        # first evaluation overflow
        ("plane", ("params", "lambda_bg"), 1e308, 3),
        ("plane", ("params", "alpha"), 1e300, 3),
    ], ids=["plane-lambda-inf", "plane-alpha-inf", "plane-half-width-inf", "plane-tol-inf",
            "plane-center-nan", "torus-periods-inf", "torus-tol-inf", "torus-center-nan",
            "plane-quantized-tol-nan", "plane-quantized-tol-negative",
            "plane-quantized-tol-inf", "torus-quantized-tol-nan",
            "plane-half-width-1e300", "plane-half-width-1e-300", "torus-periods-1e300",
            "plane-lambda-1e308", "plane-alpha-1e300"])
    def test_non_finite_inputs_exit_typed(self, plane_cfg, torus_cfg, tmp_path, capsys,
                                          mode, path, value, code):
        cfg = read_cfg(plane_cfg if mode == "plane" else torus_cfg)
        block = cfg
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        p = write_cfg(tmp_path / "c.json", cfg)
        assert main([f"solve-{mode}", "--config", p, "--out", str(tmp_path / "o")]) == code
        prefix = "config error: " if code == 1 else "solver failure: "
        assert capsys.readouterr().out.startswith(prefix)

    def test_overflowing_background_names_lambda(self, plane_cfg, tmp_path, capsys):
        cfg = read_cfg(plane_cfg)
        cfg["params"]["lambda_bg"] = 1e308
        p = write_cfg(tmp_path / "c.json", cfg)
        assert main(["solve-plane", "--config", p, "--out", str(tmp_path / "o")]) == 3
        out = capsys.readouterr().out
        assert "lambda_bg = 1e+308" in out and "background profile" in out

    def test_species_count_bounded_before_allocation(self, plane_cfg, tmp_path, capsys):
        # one vortex list per species used to be built before any bound, so a
        # garbled count ran for minutes and exhausted memory
        cfg = read_cfg(plane_cfg)
        cfg["params"]["species"] = MAX_SPECIES
        assert load_config(write_cfg(tmp_path / "max.json", cfg)).params.species == MAX_SPECIES
        for species in (MAX_SPECIES + 1, 10**6):
            cfg["params"]["species"] = species
            p = write_cfg(tmp_path / f"{species}.json", cfg)
            with pytest.raises(ConfigError, match="species count"):
                load_config(p)
            assert main(["solve-plane", "--config", p, "--out", str(tmp_path / "o")]) == 1
            assert "config error" in capsys.readouterr().out

    @settings(max_examples=150, deadline=None)
    @given(content=_garbled_configs(),
           command=st.sampled_from(("verify", "decay-fit")))
    def test_garbled_configs_exit_with_a_documented_code(self, content, command):
        # no fields are stored, so a config that parses exits 1 for the
        # missing files before any solve
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.json")
            with open(path, "wb") as fh:
                fh.write(content)
            code = main([command, "--config", path, "--out", os.path.join(tmp, "o")])
        assert code in (0, 1, 2, 3, 4)


def _error_classes(cls=CsvortexError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


class TestFailurePath:
    """Each error class carries its exit code and label; main prints
    ``label: message`` and returns that code."""

    def test_exit_code_table(self):
        table = {cls.__name__: (cls.exit_code, cls.label) for cls in _error_classes()}
        solver = (3, "solver failure")
        assert table == {
            "CsvortexError": (1, "error"), "ConfigError": (1, "config error"),
            "DomainError": (1, "config error"), "FieldFileError": (1, "error"),
            "DiagnosticFailure": (2, "diagnostic failure"),
            "NonConvergenceError": solver, "NonFiniteFieldError": solver,
            "BoundaryTrappingError": solver, "MountainPassCollapseError": solver,
            "AdmissibilityError": solver, "InfeasibleError": (4, "infeasible"),
        }

    @pytest.mark.parametrize("error", list(_error_classes()), ids=lambda cls: cls.__name__)
    def test_main_returns_the_class_code(self, plane_cfg, tmp_path, capsys, monkeypatch,
                                         error):
        import csvortex.cli as cli_mod

        def fail(cfg):
            raise error("the message")

        monkeypatch.setattr(cli_mod, "cmd_solve_plane", fail)
        assert error.exit_code in (1, 2, 3, 4)
        argv = ["solve-plane", "--config", plane_cfg, "--out", str(tmp_path / "o")]
        assert main(argv) == error.exit_code
        assert capsys.readouterr() == (f"{error.label}: the message\n", "")

    def test_unwritable_field_exits_one(self, plane_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "f.bin").mkdir(parents=True)
        args = ["--config", plane_cfg, "--out", str(out), "--grid", "32"]
        assert main(["solve-plane"] + args) == 1
        printed, err = capsys.readouterr()
        assert printed.startswith("error: ") and "f.bin" in printed and err == ""

    def test_unreadable_field_exits_one(self, plane_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["--config", plane_cfg, "--out", str(out), "--grid", "32"]
        assert main(["solve-plane"] + args) == 0
        (out / "u.bin").unlink()
        (out / "u.bin").mkdir()
        capsys.readouterr()
        for command in ("verify", "decay-fit"):
            assert main([command] + args) == 1
            printed, err = capsys.readouterr()
            assert printed.startswith("error: ") and "u.bin" in printed and err == ""


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["solve-plane"],
        ["bogus"],
        ["verify", "--config", "c.json", "--grid", "abc"],
        ["solve-torus", "--config", "c.json", "--seed", "zero"],
    ])
    def test_usage_error_exits_one(self, argv, capsys):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "solve-torus" in capsys.readouterr().out


def _report_values(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


class TestReportAgreement:
    """A solve report and verify's report of the fields that solve wrote
    agree on every key they share, to the last printed digit."""

    @pytest.mark.parametrize("command,config", [("solve-plane", "plane_cfg"),
                                                ("solve-torus", "torus_cfg")])
    def test_solve_and_verify_reports_agree(self, command, config, tmp_path, request):
        cfg = request.getfixturevalue(config)
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        solved = _report_values(out / "report.txt")
        verified = _report_values(out / "verify_report.txt")
        shared = (set(solved) & set(verified)) - {"mode"}
        assert {key: solved[key] for key in shared} == {key: verified[key] for key in shared}
        assert {"energy", "grad_norm", "pde_residual.same_operator",
                "pde_residual.fourth_order"} <= shared
        if command == "solve-torus":
            for key in ("pde_residual.fourth_order", "admissible_margin_1",
                        "admissible_margin_2", "c1", "c2"):
                assert key in verified, key
        for key in ("iterations", "minres_iters", "clamp_hit", "wall_time_seconds",
                    "constraint_residual_1", "energy_J", "decay.slope"):
            assert key not in verified, key


    @pytest.mark.parametrize("command,config,operator", [
        ("solve-plane", "plane_cfg", PlaneOperator),
        ("solve-torus", "torus_cfg", TorusOperator)])
    def test_one_operator_evaluation_per_field_report(self, command, config, operator,
                                                       tmp_path, request, monkeypatch):
        # verify's report takes its energy, gradient and same-operator
        # residual from a single evaluation of the operator
        cfg = request.getfixturevalue(config)
        args = ["--config", cfg, "--out", str(tmp_path / "run"), "--grid", "32"]
        assert main([command] + args) == 0
        calls = []
        evaluate = operator._evaluate

        def counted(self, *a, **k):
            calls.append(1)
            return evaluate(self, *a, **k)

        monkeypatch.setattr(operator, "_evaluate", counted)
        assert main(["verify"] + args) == 0
        assert len(calls) == 1


class TestPlanePipeline:
    def test_solve_writes_artifacts(self, plane_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["solve-plane", "--config", plane_cfg, "--out", str(out)]) == 0
        for name in ("f.bin", "u.bin", "f_0.bin", "u_0.bin", "report.txt", "u.csv"):
            assert (out / name).exists(), name
        text = (out / "report.txt").read_text()
        assert "quantized.total.rel_error" in text
        assert "mode = plane" in text
        for key in ("minres_iters", "minres_unconverged", "clamp_hit = False"):
            assert key in text

    def test_verify_roundtrip_and_idempotent(self, plane_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["solve-plane", "--config", plane_cfg, "--out", str(out)]) == 0
        assert main(["verify", "--config", plane_cfg, "--out", str(out)]) == 0
        rep1 = (out / "verify_report.txt").read_bytes()
        assert main(["verify", "--config", plane_cfg, "--out", str(out)]) == 0
        rep2 = (out / "verify_report.txt").read_bytes()
        assert rep1 == rep2
        assert b"minres" not in rep1 and b"clamp_hit" not in rep1

    def test_verify_rejects_fields_of_another_domain(self, plane_cfg, tmp_path, capsys):
        # the stored 64² fields against a 32² grid, then against another box
        out = tmp_path / "run"
        assert main(["solve-plane", "--config", plane_cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--config", plane_cfg, "--out", str(out),
                     "--grid", "32"]) == 1
        assert "64x64 box" in capsys.readouterr().out
        cfg = read_cfg(plane_cfg)
        cfg["domain"]["half_width"] = 8.5
        wider = write_cfg(tmp_path / "wider.json", cfg)
        assert main(["verify", "--config", wider, "--out", str(out)]) == 1
        assert "extent 8 x 8" in capsys.readouterr().out

    def test_tampered_field_detected(self, plane_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve-plane", "--config", plane_cfg, "--out", str(out)]) == 0
        f = read_field(out / "u.bin")
        vals = f.values.copy()
        vals[10, 12] += 0.1
        write_field(out / "u.bin", type(f)(f.domain, vals))
        capsys.readouterr()
        assert main(["verify", "--config", plane_cfg, "--out", str(out)]) == 2
        assert "max_principle.u" in capsys.readouterr().out

    def test_non_finite_field_exits_one(self, plane_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve-plane", "--config", plane_cfg, "--out", str(out)]) == 0
        f = read_field(out / "f.bin")
        vals = f.values.copy()
        vals[3, 4] = float("nan")
        write_field(out / "f.bin", type(f)(f.domain, vals))
        u = read_field(out / "u.bin")
        vals = u.values.copy()
        vals[5, 6] = float("inf")
        write_field(out / "u.bin", type(u)(u.domain, vals))
        capsys.readouterr()
        assert main(["verify", "--config", plane_cfg, "--out", str(out)]) == 1
        assert "f.bin holds a non-finite value nan at node (3, 4)" in capsys.readouterr().out
        assert main(["decay-fit", "--config", plane_cfg, "--out", str(out)]) == 1
        assert "u.bin holds a non-finite value inf at node (5, 6)" in capsys.readouterr().out

    @pytest.mark.parametrize("corrupt", ["cut_payload", "nan_kind_code"])
    def test_corrupt_field_file_exits_one(self, plane_cfg, tmp_path, capsys, corrupt):
        out = tmp_path / "run"
        args = ["--config", plane_cfg, "--out", str(out), "--grid", "32"]
        assert main(["solve-plane"] + args) == 0
        raw = (out / "u.bin").read_bytes()
        if corrupt == "cut_payload":
            raw = raw[:-3]
        else:
            raw = raw[:8] + struct.pack("<f", float("nan")) + raw[12:]
        (out / "u.bin").write_bytes(raw)
        capsys.readouterr()
        for command in ("verify", "decay-fit"):
            assert main([command] + args) == 1
            printed = capsys.readouterr().out
            assert printed.startswith("error: ") and "u.bin" in printed

    def test_missing_fields_exit_one(self, plane_cfg, tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        assert main(["verify", "--config", plane_cfg, "--out", str(out)]) == 1

    def test_deterministic_artifacts(self, plane_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve-plane", "--config", plane_cfg, "--out", str(out1)]) == 0
        assert main(["solve-plane", "--config", plane_cfg, "--out", str(out2)]) == 0
        assert (out1 / "u.bin").read_bytes() == (out2 / "u.bin").read_bytes()
        assert (out1 / "f.bin").read_bytes() == (out2 / "f.bin").read_bytes()

    def test_decay_fit_subcommand(self, plane_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve-plane", "--config", plane_cfg, "--out", str(out)]) == 0
        assert main(["decay-fit", "--config", plane_cfg, "--out", str(out)]) == 0
        assert "iterations" not in _report_values(out / "decay_report.txt")
        assert (out / "decay_rays.csv").exists()
        assert "slope" in capsys.readouterr().out

    def test_decay_annulus_outside_the_box(self, plane_cfg, tmp_path, capsys):
        # about (3, 0) the annulus 4..6.4 of the 8-box reaches x = 9.4
        cfg = read_cfg(plane_cfg)
        cfg["decay_center"] = [3.0, 0.0]
        p = write_cfg(tmp_path / "shifted.json", cfg)
        out = tmp_path / "run"
        assert main(["solve-plane", "--config", p, "--out", str(out)]) == 0
        assert not any(k.startswith("decay.") for k in _report_values(out / "report.txt"))
        assert not (out / "decay_rays.csv").exists()
        capsys.readouterr()
        assert main(["decay-fit", "--config", p, "--out", str(out)]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith("diagnostic failure: ") and "decay_center" in printed

    def test_env_output_override(self, plane_cfg, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("CSVORTEX_OUT", str(target))
        assert main(["solve-plane", "--config", plane_cfg]) == 0
        assert (target / "report.txt").exists()


class TestTorusPipeline:
    def test_infeasible_exit_four(self, tmp_path, capsys):
        cfg = {
            "schema_version": 1,
            "mode": "torus",
            "params": {"alpha": 0.5, "beta": 1.0, "sigma": 3.0},
            "domain": {"kind": "torus",
                       "periods": [6.283185307179586, 6.283185307179586],
                       "n": [32, 32]},
            "vortices": [{"species": 0, "x": 3.14159, "y": 3.14159}],
        }
        p = write_cfg(tmp_path / "c.json", cfg)
        assert main(["solve-torus", "--config", p, "--out", str(tmp_path / "o")]) == 4
        assert "alpha*beta*|Omega| - 8*pi*n = -5.39353" in capsys.readouterr().out

    def test_feasible_proceeds(self, tmp_path):
        # alpha*beta = 1 >= 8*pi/|Omega|: the gate opens and the solve runs
        cfg = {
            "schema_version": 1,
            "mode": "torus",
            "params": {"alpha": 1.0, "beta": 1.2, "sigma": 2.0},
            "domain": {"kind": "torus",
                       "periods": [6.283185307179586, 6.283185307179586],
                       "n": [32, 32]},
            "vortices": [{"species": 0, "x": 3.141592653589793, "y": 3.141592653589793}],
            "opts": {"tol": 1e-9},
        }
        p = write_cfg(tmp_path / "c.json", cfg)
        assert main(["solve-torus", "--config", p, "--out", str(tmp_path / "o")]) == 0

    def test_first_solution_run(self, torus_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["solve-torus", "--config", torus_cfg, "--out", str(out)]) == 0
        for name in ("u.bin", "v.bin", "U.bin", "V.bin", "report.txt"):
            assert (out / name).exists()
        text = (out / "report.txt").read_text()
        assert "feasibility_margin" in text
        assert "max_principle.U = pass" in text

    def test_torus_verify_and_tamper(self, torus_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve-torus", "--config", torus_cfg, "--out", str(out)]) == 0
        assert main(["verify", "--config", torus_cfg, "--out", str(out)]) == 0
        f = read_field(out / "u.bin")
        vals = f.values.copy()
        vals[5, 7] += 0.1
        write_field(out / "u.bin", type(f)(f.domain, vals))
        capsys.readouterr()
        assert main(["verify", "--config", torus_cfg, "--out", str(out)]) == 2
        assert "pde_residual.same_operator" in capsys.readouterr().out

    def test_non_finite_field_exits_one(self, torus_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve-torus", "--config", torus_cfg, "--out", str(out)]) == 0
        f = read_field(out / "u.bin")
        vals = f.values.copy()
        vals[5, 7] = float("nan")
        write_field(out / "u.bin", type(f)(f.domain, vals))
        capsys.readouterr()
        assert main(["verify", "--config", torus_cfg, "--out", str(out)]) == 1
        assert "u.bin holds a non-finite value nan at node (5, 7)" in capsys.readouterr().out
        assert not (out / "verify_report.txt").exists()

    @pytest.mark.slow
    def test_second_solution_run(self, torus_cfg, tmp_path):
        out = tmp_path / "run2"
        assert main(["solve-torus", "--config", torus_cfg, "--out", str(out),
                     "--second-solution"]) == 0
        for name in ("u2.bin", "v2.bin", "U2.bin", "V2.bin", "report_second.txt"):
            assert (out / name).exists()
        text = (out / "report_second.txt").read_text()
        assert "separation" in text
        assert "path_max_energy" in text
        assert "mode = torus-second" in text
        for key in ("minres_iters", "minres_unconverged = 0", "clamp_hit"):
            assert key in text
        iterations = [line for line in text.splitlines() if line.startswith("iterations = ")]
        assert len(iterations) == 1 and int(iterations[0].split(" = ")[1]) > 0

    def test_retired_path_nodes_option_still_loads(self, tmp_path):
        # opts.path_nodes, opts.seed, opts.separation, opts.residual_tol and
        # opts.lam_t are no longer options; schema-v1 configs that set them
        # still load, and the keys are ignored
        cfg = {
            "schema_version": 1,
            "mode": "torus",
            "params": {"alpha": 30.0, "beta": 45.0, "sigma": 2.0},
            "domain": {"kind": "torus",
                       "periods": [6.283185307179586, 6.283185307179586],
                       "n": [32, 32]},
            "vortices": [{"species": 0, "x": 3.141592653589793,
                          "y": 3.141592653589793}],
            "opts": {"tol": 1e-9, "path_nodes": 17, "seed": "zero",
                     "separation": 0.5, "residual_tol": 1e-3, "lam_t": 100.0},
        }
        p = write_cfg(tmp_path / "torus_v1.json", cfg)
        loaded = load_config(p)
        assert loaded.opts == RunOpts(tol=1e-9)
        out = tmp_path / "run"
        assert main(["solve-torus", "--config", p, "--out", str(out),
                     "--second-solution"]) == 0
        assert (out / "report_second.txt").exists()

    def test_no_second_solution_without_vortices(self, tmp_path, capsys):
        cfg = {
            "schema_version": 1,
            "mode": "torus",
            "params": {"alpha": 1.0, "beta": 2.0, "sigma": 3.0},
            "domain": {"kind": "torus",
                       "periods": [6.283185307179586, 6.283185307179586],
                       "n": [32, 32]},
            "vortices": [],
        }
        p = write_cfg(tmp_path / "empty.json", cfg)
        assert main(["solve-torus", "--config", p, "--out", str(tmp_path / "o"),
                     "--second-solution"]) == 3
        assert "no second solution without vortices" in capsys.readouterr().out
