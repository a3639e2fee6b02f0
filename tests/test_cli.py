"""Spec-file parsing, CLI subcommands, reports and CSV output."""

import csv
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import manlab
from manlab import cli
from manlab.algebras import structural_algebra
from manlab.cli import run
from manlab.errors import SpecFileError
from manlab.linalg import haar_unitary
from manlab.man import man_omega
from manlab.rng import RngStream
from manlab.specio import (
    AlgebraSpec,
    parse_matrix_file,
    parse_spec,
    serialize_spec,
    spec_from_dict,
    write_spec,
)

from helpers import BELL, HADAMARD, random_matrix, random_unitary


def _matrix_payload(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, dtype=complex)]


@pytest.fixture
def specdir(tmp_path):
    files = {
        "m2x1.json": {"dim": 4, "kind": "lattice", "site_dims": [2, 2], "region": [0]},
        "full4.json": {"dim": 4, "kind": "full"},
        "full2.json": {"dim": 2, "kind": "full"},
        "triv4.json": {"dim": 4, "kind": "trivial"},
        "sym2.json": {"dim": 4, "kind": "structural", "blocks": [[1, 3], [1, 1]]},
        "asym3.json": {"dim": 3, "kind": "structural", "blocks": [[1, 1], [1, 2]]},
        "diag2.json": {"dim": 2, "kind": "masa", "unitary": _matrix_payload(np.eye(2))},
        "had2.json": {"dim": 2, "kind": "masa", "unitary": _matrix_payload(HADAMARD)},
        "bell4.json": {"dim": 4, "kind": "masa", "unitary": _matrix_payload(BELL)},
        "lat01.json": {"dim": 8, "kind": "lattice", "site_dims": [2, 2, 2], "region": [0, 1]},
        "lat12.json": {"dim": 8, "kind": "lattice", "site_dims": [2, 2, 2], "region": [1, 2]},
        "genz.json": {"dim": 2, "kind": "generators",
                      "matrices": [_matrix_payload(np.diag([1.0, -1.0]))]},
    }
    for name, payload in files.items():
        with open(tmp_path / name, "w") as fh:
            json.dump(payload, fh)
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    with open(tmp_path / "swap_u.json", "w") as fh:
        json.dump({"dim": 4, "matrix": _matrix_payload(swap)}, fh)
    return tmp_path


def _refuse_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out, parse_constant=_refuse_constant)


class TestSpecIO:
    def test_round_trip_all_kinds(self, specdir):
        for name in os.listdir(specdir):
            if name == "swap_u.json":
                continue
            spec = parse_spec(str(specdir / name))
            again = spec_from_dict(json.loads(serialize_spec(spec)))
            assert again == spec, name

    @given(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_structural_round_trip(self, blocks):
        dim = sum(n * d for n, d in blocks)
        spec = spec_from_dict({"dim": dim, "kind": "structural",
                               "blocks": [list(b) for b in blocks]})
        assert spec_from_dict(spec.to_dict()) == spec
        alg = spec.to_algebra()
        assert alg.dim == sum(d * d for _, d in blocks)

    def test_write_and_parse(self, tmp_path):
        spec = spec_from_dict({"dim": 2, "kind": "full"})
        write_spec(spec, str(tmp_path / "x.json"))
        assert parse_spec(str(tmp_path / "x.json")) == spec

    def test_label(self):
        spec = spec_from_dict({"dim": 4, "kind": "lattice", "site_dims": [2, 2], "region": [0]})
        assert "lattice" in spec.label()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecFileError) as err:
            parse_spec(str(path))
        assert "line" in str(err.value)

    def test_missing_dim(self):
        with pytest.raises(SpecFileError):
            spec_from_dict({"kind": "full"})

    def test_unknown_kind(self):
        with pytest.raises(SpecFileError):
            spec_from_dict({"dim": 2, "kind": "banana"})

    def test_structural_sum_mismatch(self):
        with pytest.raises(SpecFileError) as err:
            spec_from_dict({"dim": 5, "kind": "structural", "blocks": [[1, 2]]})
        assert "blocks" in str(err.value)

    def test_masa_requires_unitary_columns(self):
        with pytest.raises(SpecFileError):
            spec_from_dict({"dim": 2, "kind": "masa",
                            "unitary": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]})

    def test_overflowing_unitary_is_refused(self):
        # finite entries whose U^dag U overflows to inf - inf = NaN
        big = [[[1e200, 0], [1e200, 0]], [[1e200, 0], [-1e200, 0]]]
        for field, payload in (("unitary", {"dim": 2, "kind": "masa"}),
                               ("basis_change", {"dim": 2, "kind": "structural",
                                                 "blocks": [[1, 2]]})):
            with pytest.raises(SpecFileError, match=field):
                spec_from_dict(dict(payload, **{field: big}))

    @pytest.mark.parametrize("big", [1e200, 1e300])
    def test_huge_aotoc_unitary_is_one_stderr_line(self, specdir, tmp_path, capsys, big):
        # the library's unitarity check bounds the entries before U^dag U overflows
        path = tmp_path / "u.json"
        path.write_text(json.dumps({"dim": 2, "matrix": _matrix_payload(np.diag([big, 1.0]))}))
        assert run(["aotoc", str(specdir / "full2.json"), "--unitary", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "manlab: AlgebraError: matrix is not unitary\n"

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_generator_scale(self, tmp_path, capsys, scale):
        # finite entries whose HS norm underflows to 0 or overflows
        path = tmp_path / "g.json"
        payload = {"dim": 2, "kind": "generators",
                   "matrices": [_matrix_payload(np.diag([scale, -scale]))]}
        path.write_text(json.dumps(payload))
        assert run(["analyze", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["result"]["d_alg"] == 2

    def test_lattice_region_out_of_range(self):
        with pytest.raises(SpecFileError):
            spec_from_dict({"dim": 4, "kind": "lattice", "site_dims": [2, 2], "region": [3]})

    def test_dimension_guardrail(self):
        with pytest.raises(SpecFileError) as err:
            spec_from_dict({"dim": 81, "kind": "full"})
        assert "--allow-large" in str(err.value)
        spec = spec_from_dict({"dim": 81, "kind": "full"}, allow_large=True)
        assert spec.dim == 81

    def test_matrix_file(self, specdir):
        u = parse_matrix_file(str(specdir / "swap_u.json"), expected_dim=4)
        assert u.shape == (4, 4)
        with pytest.raises(SpecFileError):
            parse_matrix_file(str(specdir / "swap_u.json"), expected_dim=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["matrices[0]", "basis_change", "unitary", "matrix"])
    def test_non_finite_entries_are_refused(self, specdir, tmp_path, capsys, field, bad):
        # json reads the NaN and Infinity tokens; every matrix field refuses them
        mat = _matrix_payload(np.eye(2))
        mat[1][0][1] = bad
        payload = {
            "matrices[0]": {"dim": 2, "kind": "generators", "matrices": [mat]},
            "basis_change": {"dim": 2, "kind": "structural", "blocks": [[1, 2]],
                             "basis_change": mat},
            "unitary": {"dim": 2, "kind": "masa", "unitary": mat},
            "matrix": {"dim": 2, "matrix": mat},
        }[field]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        if field == "matrix":
            argv = ["aotoc", str(specdir / "full2.json"), "--unitary", str(path)]
        else:
            argv = ["man", str(path), str(specdir / "full2.json")]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"manlab: {path}: field '{field}': matrix entries must be finite\n"


class TestCliCommands:
    def test_analyze(self, specdir, capsys):
        report = _run_json(capsys, ["analyze", str(specdir / "asym3.json")])
        res = report["result"]
        assert res["method"] == "algebra.analyze"
        assert res["d_Z"] == 2 and res["d_alg"] == 5 and res["collinear"] is False

    def test_man_omega_fraction(self, specdir, capsys):
        report = _run_json(capsys, [
            "man", str(specdir / "m2x1.json"), str(specdir / "full4.json"),
            "--method", "omega",
        ])
        assert abs(report["result"]["S"] - 0.75) < 1e-12
        assert report["result"]["method"] == "man.omega"
        assert report["seed"] == 0

    def test_selfman_symmetric(self, specdir, capsys):
        report = _run_json(capsys, ["selfman", str(specdir / "sym2.json")])
        assert abs(report["result"]["S"] - 2 / 3) < 1e-12

    def test_every_method_dispatches(self, specdir, capsys):
        for method in ("omega", "projection", "collinear", "entropy"):
            report = _run_json(capsys, [
                "man", str(specdir / "m2x1.json"), str(specdir / "bell4.json"),
                "--method", method,
            ])
            assert abs(report["result"]["S"] - 0.75) < 1e-9

    def test_mc_determinism_byte_identical(self, specdir, capsys):
        argv = ["man", str(specdir / "m2x1.json"), str(specdir / "bell4.json"),
                "--method", "mc", "--samples", "400", "--seed", "11"]
        r1 = _run_json(capsys, argv)
        r2 = _run_json(capsys, argv)
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert json.dumps(r1) == json.dumps(r2)

    def test_bounds(self, specdir, capsys):
        report = _run_json(capsys, [
            "bounds", str(specdir / "m2x1.json"), str(specdir / "full4.json")])
        res = report["result"]
        assert abs(res["commutant_bound"] - 0.75) < 1e-12
        assert res["S"] <= res["commutant_bound"] + 1e-9

    def test_orbit_avg_with_mc(self, specdir, capsys):
        report = _run_json(capsys, [
            "orbit-avg", str(specdir / "m2x1.json"), str(specdir / "m2x1.json"),
            "--samples", "500", "--seed", "3",
        ])
        res = report["result"]
        assert abs(res["value"] - 0.6) < 1e-12
        mc = res["mc_estimate"]
        assert abs(mc["estimate"] - 0.6) <= 5 * mc["std_error"]

    def test_lattice(self, specdir, capsys):
        report = _run_json(capsys, [
            "lattice", str(specdir / "lat01.json"), str(specdir / "lat12.json")])
        res = report["result"]
        assert abs(res["S"] - 0.75) < 1e-12
        assert abs(res["S2"] - 2.0) < 1e-12
        assert abs(res["extras"]["s2_conditional"] - 2.0) < 1e-12

    def test_masa_and_quantumness(self, specdir, capsys):
        report = _run_json(capsys, [
            "masa", str(specdir / "diag2.json"), str(specdir / "had2.json")])
        assert abs(report["result"]["S"] - 0.5) < 1e-12
        report = _run_json(capsys, [
            "quantumness", str(specdir / "diag2.json"), str(specdir / "had2.json")])
        res = report["result"]
        assert abs(res["Q"] - 0.5) < 1e-12 and res["lower_holds"] and res["upper_holds"]

    def test_aotoc(self, specdir, capsys):
        report = _run_json(capsys, [
            "aotoc", str(specdir / "m2x1.json"), "--unitary", str(specdir / "swap_u.json")])
        assert abs(report["result"]["S"] - 0.75) < 1e-9

    def test_protocol_choi_self(self, specdir, capsys):
        report = _run_json(capsys, ["protocol", "choi", str(specdir / "full2.json")])
        assert abs(report["result"]["estimate"] - 0.75) < 1e-12
        assert report["result"]["extras"]["nc2"] == 2.0

    def test_protocol_stochastic_pair(self, specdir, capsys):
        report = _run_json(capsys, [
            "protocol", "stochastic", str(specdir / "m2x1.json"), str(specdir / "bell4.json"),
            "--samples", "2000", "--seed", "5",
        ])
        res = report["result"]
        assert abs(res["estimate"] - 0.75) <= 5 * res["std_error"]

    def test_markov_check(self, specdir, capsys):
        report = _run_json(capsys, [
            "markov-check", str(specdir / "diag2.json"), str(specdir / "full2.json"),
            "--epsilon", "0.5", "--samples", "60", "--state-samples", "4",
        ])
        res = report["result"]
        assert res["violated"] is False
        assert res["method"] == "protocol.markov_check"

    def test_markov_check_defaults_live_in_protocols(self, specdir, capsys, monkeypatch):
        from manlab import protocols

        given, check = [], protocols.markov_bound_check

        def recording(*args, **kwargs):
            given.append(set(kwargs))
            return check(*args, **kwargs)

        monkeypatch.setattr(protocols, "markov_bound_check", recording)
        argv = ["markov-check", str(specdir / "diag2.json"), str(specdir / "had2.json"),
                "--epsilon", "0.5"]
        plain = _run_json(capsys, argv)["result"]
        spelled = _run_json(capsys, argv + ["--samples", "1000", "--state-samples", "32"])["result"]
        assert plain == spelled
        assert given == [{"rng"}, {"rng", "samples", "state_samples"}]

    def test_quiet_strips_summaries(self, specdir, capsys):
        report = _run_json(capsys, [
            "man", str(specdir / "m2x1.json"), str(specdir / "full4.json"), "--quiet"])
        assert "inputs" not in report
        assert "inputs" not in report["result"]

    def test_log_base_e(self, specdir, capsys):
        report = _run_json(capsys, [
            "man", str(specdir / "m2x1.json"), str(specdir / "full4.json"),
            "--log-base", "e",
        ])
        assert abs(report["result"]["S2"] - math.log(4.0)) < 1e-9

    def test_env_seed(self, specdir, capsys, monkeypatch):
        monkeypatch.setenv("MANLAB_SEED", "99")
        report = _run_json(capsys, [
            "man", str(specdir / "full2.json"), str(specdir / "full2.json"),
            "--method", "mc", "--samples", "50",
        ])
        assert report["seed"] == 99

    def test_report_round_trips(self, specdir, capsys):
        report = _run_json(capsys, [
            "man", str(specdir / "m2x1.json"), str(specdir / "full4.json")])
        assert json.loads(json.dumps(report)) == report


class TestNoOmegaInProduction:
    # Omega_A is d^2 x d^2; every production route works from block data alone
    def test_commands_never_build_omega(self, specdir, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("omega_operator called outside the oracle tests")

        monkeypatch.setattr("manlab.oracles.omega_operator", forbidden)
        m2x1, full4 = str(specdir / "m2x1.json"), str(specdir / "full4.json")
        res = _run_json(capsys, ["man", m2x1, full4])["result"]
        assert res["method"] == "man.omega" and abs(res["S"] - 0.75) < 1e-12
        res = _run_json(capsys, ["bounds", m2x1, full4])["result"]
        assert abs(res["S"] - 0.75) < 1e-12
        res = _run_json(capsys, [
            "aotoc", m2x1, "--unitary", str(specdir / "swap_u.json")])["result"]
        assert abs(res["S"] - 0.75) < 1e-9
        res = _run_json(capsys, [
            "markov-check", str(specdir / "diag2.json"), str(specdir / "full2.json"),
            "--epsilon", "0.5", "--samples", "20"])["result"]
        assert abs(res["S"] - 0.5) < 1e-12
        res = _run_json(capsys, ["orbit-avg", m2x1, m2x1, "--samples", "50"])["result"]
        assert abs(res["value"] - 0.6) < 1e-12
        mc = res["mc_estimate"]
        assert abs(mc["estimate"] - 0.6) <= 5 * mc["std_error"]


class TestNoDenseOverlapInProduction:
    # Tr(P_A P_B') comes from block data: no HS projector and no Choi state;
    # the exact protocol modes build neither B' nor the center either
    def test_overlap_routes_build_no_dense_objects(self, specdir, capsys, monkeypatch):
        def forbid(name):
            def forbidden(*args, **kwargs):
                raise AssertionError(f"{name} called by an overlap route")
            return forbidden

        monkeypatch.setattr("manlab.oracles.SuperOperator.hs_projection",
                            forbid("SuperOperator.hs_projection"))
        monkeypatch.setattr("manlab.oracles.algebra_state", forbid("algebra_state"))
        m2x1, bell4 = str(specdir / "m2x1.json"), str(specdir / "bell4.json")
        res = _run_json(capsys, ["man", m2x1, bell4, "--method", "collinear"])["result"]
        assert abs(res["S"] - 0.75) < 1e-12

        monkeypatch.setattr("manlab.algebras.OperatorAlgebra.commutant_algebra",
                            forbid("commutant_algebra"))
        monkeypatch.setattr("manlab.protocols.center", forbid("center"))
        for argv in (["choi", m2x1, bell4], ["choi", m2x1],
                     ["stochastic", m2x1, bell4], ["stochastic", m2x1]):
            res = _run_json(capsys, ["protocol", *argv])["result"]
            assert abs(res["estimate"] - 0.75) < 1e-12, argv
        res = _run_json(capsys, ["protocol", "choi", m2x1, bell4, "--shots", "4000",
                                 "--seed", "3"])["result"]
        assert abs(res["estimate"] - 0.75) <= 5 * res["std_error"]


class TestNoCommutantSolveInProduction:
    # a generators spec gets its commutant and center from its own blocks
    def test_generators_commands_never_solve_a_commutant(self, specdir, tmp_path, capsys,
                                                         monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("compute_commutant called outside the oracle tests")

        monkeypatch.setattr("manlab.algebras.compute_commutant", forbidden)
        sx = np.array([[0, 1], [1, 0]])
        sz = np.diag([1.0, -1.0])
        gens = tmp_path / "m2x1_gens.json"
        gens.write_text(json.dumps({"dim": 4, "kind": "generators", "matrices": [
            _matrix_payload(np.kron(sx, np.eye(2))), _matrix_payload(np.kron(sz, np.eye(2)))]}))
        a, full4 = str(gens), str(specdir / "full4.json")
        res = _run_json(capsys, ["analyze", a])["result"]
        assert (res["n"], res["d_blocks"]) == ([2], [2])
        assert abs(_run_json(capsys, ["selfman", a])["result"]["S"] - 0.75) < 1e-12
        for method in ("omega", "projection", "collinear", "entropy"):
            res = _run_json(capsys, ["man", a, full4, "--method", method])["result"]
            assert abs(res["S"] - 0.75) < 1e-9, method
        res = _run_json(capsys, ["bounds", a, full4])["result"]
        assert abs(res["S"] - 0.75) < 1e-9 and res["intersection_dim"] == 1
        res = _run_json(capsys, ["aotoc", a, "--unitary", str(specdir / "swap_u.json")])
        assert abs(res["result"]["S"] - 0.75) < 1e-9


class TestRepeatedSpecPath:
    # a path named twice is parsed and solved once; a copy of the file at a
    # second path gives the same result, and the protocols keep the pair variant
    def test_one_parse_and_solve_per_distinct_path(self, tmp_path, capsys, monkeypatch):
        import manlab.algebras as algebras

        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        sx, sz = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
        text = json.dumps({"dim": 4, "kind": "generators", "matrices": [
            _matrix_payload(np.kron(sx, np.eye(2))), _matrix_payload(np.kron(sz, np.eye(2)))]})
        (tmp_path / "g.json").write_text(text)
        (tmp_path / "copy.json").write_text(text)
        g, copy = str(tmp_path / "g.json"), str(tmp_path / "copy.json")
        monkeypatch.setattr(cli, "parse_spec", counting("parse", cli.parse_spec))
        monkeypatch.setattr(algebras, "algebra_from_generators",
                            counting("solve", algebras.algebra_from_generators))
        commands = [(["man"], []), (["man"], ["--method", "entropy"]), (["bounds"], []),
                    (["orbit-avg"], []), (["man"], ["--method", "mc", "--samples", "20"]),
                    (["protocol", "choi"], []), (["protocol", "stochastic"], []),
                    (["protocol", "stochastic"], ["--samples", "20"])]
        for head, options in commands:
            calls.clear()
            twice = _run_json(capsys, [*head, g, g, *options])["result"]
            assert calls == ["parse", "solve"], (head, options, calls)
            assert twice == _run_json(capsys, [*head, g, copy, *options])["result"], head
            if head[0] == "protocol":
                assert twice["extras"]["self_mode"] is False, (head, options)


class TestOneBasisPerAlgebra:
    # every algebra a command builds is born from its blocks, and no command
    # reads a dense basis: not A's or B's, not A''s, not the center's, and
    # neither the block bases nor an HS projection
    def test_commands_build_no_commutant_basis(self, specdir, tmp_path, capsys, monkeypatch):
        import manlab.algebras as mod

        built, dense = [], []
        block_basis = mod._block_algebra_basis

        def counting(blocks):
            basis = block_basis(blocks)
            built.append(len(basis))
            return basis

        def recording(name, original):
            def wrapper(*args, **kwargs):
                dense.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mod, "_block_algebra_basis", counting)
        monkeypatch.setattr("manlab.oracles.block_bases",
                            recording("block_bases", manlab.block_bases))
        monkeypatch.setattr(mod.OperatorAlgebra, "project",
                            recording("project", mod.OperatorAlgebra.project))
        rot = tmp_path / "rot4.json"
        rot.write_text(json.dumps({"dim": 4, "kind": "structural", "blocks": [[1, 2], [2, 1]],
                                   "basis_change": _matrix_payload(random_unitary(4, 61))}))
        sx, sz = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
        gens = tmp_path / "m2x1_gens.json"
        gens.write_text(json.dumps({"dim": 4, "kind": "generators", "matrices": [
            _matrix_payload(np.kron(sx, np.eye(2))), _matrix_payload(np.kron(sz, np.eye(2)))]}))
        specs = [str(specdir / name) for name in ("full4.json", "triv4.json", "bell4.json",
                                                  "m2x1.json")] + [str(rot), str(gens)]
        pairs = list(zip(specs, specs[1:] + specs[:1]))
        collinear = [(a, b) for a, b in pairs if a != str(rot)]
        swap_u = str(specdir / "swap_u.json")
        argvs = [["analyze", s] for s in specs] + [["selfman", s] for s in specs]
        argvs += [["aotoc", s, "--unitary", swap_u] for s in specs]
        for a, b in pairs:
            argvs += [["man", a, b, "--method", m] for m in ("omega", "projection", "entropy")]
            argvs += [["man", a, b, "--method", "mc", "--samples", "20"], ["bounds", a, b],
                      ["orbit-avg", a, b], ["orbit-avg", a, b, "--samples", "20"]]
        for a, b in collinear:
            argvs.append(["man", a, b, "--method", "collinear"])
            for pair in ([a, b], [a]):
                argvs += [["protocol", "choi", *pair], ["protocol", "stochastic", *pair],
                          ["protocol", "stochastic", *pair, "--samples", "20"]]
        for argv in argvs:
            built.clear()
            _run_json(capsys, argv)
            assert sum(built) == 0, argv
            assert dense == [], (argv, dense)


class TestCliErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert run(["analyze", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_collinear_method_on_non_collinear(self, specdir, capsys):
        code = run(["man", str(specdir / "sym2.json"), str(specdir / "full4.json"),
                    "--method", "collinear"])
        assert code == 1
        assert "collinear" in capsys.readouterr().err

    def test_masa_command_needs_masa_spec(self, specdir, capsys):
        assert run(["masa", str(specdir / "full2.json"), str(specdir / "had2.json")]) == 2

    def test_lattice_needs_matching_sites(self, specdir, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text(json.dumps(
            {"dim": 4, "kind": "lattice", "site_dims": [4], "region": [0]}))
        assert run(["lattice", str(specdir / "lat01.json"), str(other)]) == 2

    def test_lattice_sites_must_match_at_equal_dim(self, specdir, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text(json.dumps(
            {"dim": 8, "kind": "lattice", "site_dims": [4, 2], "region": [0]}))
        assert run(["lattice", str(specdir / "lat01.json"), str(other)]) == 2
        assert capsys.readouterr().err == f"manlab: {other}: the two lattice specs must share site_dims\n"

    @pytest.mark.parametrize("argv", [
        ["man", "gen4.json", "genz.json"],
        ["bounds", "gen4.json", "genz.json"],
        ["orbit-avg", "gen4.json", "genz.json"],
        ["markov-check", "gen4.json", "genz.json", "--epsilon", "0.5"],
        ["protocol", "choi", "gen4.json", "genz.json"],
        ["protocol", "stochastic", "gen4.json", "genz.json", "--samples", "20"],
        ["masa", "bell4.json", "had2.json"],
        ["quantumness", "bell4.json", "had2.json"],
        ["lattice", "m2x1.json", "lat01.json"],
    ], ids=lambda argv: "-".join(a for a in argv[:2] if not a.endswith(".json")))
    def test_pair_dims_must_match(self, specdir, capsys, monkeypatch, argv):
        # exit 2 naming the second file and its dim before any algebra is built,
        # so a generators pair costs no structure solve
        (specdir / "gen4.json").write_text(json.dumps({"dim": 4, "kind": "generators", "matrices": [
            _matrix_payload(np.kron(np.diag([1.0, -1.0]), np.eye(2)))]}))

        def refuse(spec):
            raise AssertionError(f"built the {spec.kind} algebra of a mismatched pair")

        monkeypatch.setattr(AlgebraSpec, "to_algebra", refuse)
        paths = [str(specdir / a) if a.endswith(".json") else a for a in argv]
        first, second = [p for p in paths if p.endswith(".json")]
        assert run(paths) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        dims = [json.loads(open(p).read())["dim"] for p in (first, second)]
        assert captured.err == (f"manlab: {second}: field 'dim': dim {dims[1]} does not match "
                                f"dim {dims[0]} of {first}\n")

    def test_markov_needs_epsilon(self, specdir, capsys):
        code = run(["markov-check", str(specdir / "diag2.json"), str(specdir / "full2.json")])
        assert code == 1
        assert "epsilon" in capsys.readouterr().err

    def test_unknown_flag(self, specdir, capsys):
        assert run(["man", str(specdir / "full2.json"), str(specdir / "full2.json"),
                    "--bogus"]) == 2

    def test_ill_conditioned_message_surfaces(self, specdir, capsys):
        code = run(["protocol", "stochastic", str(specdir / "triv4.json"),
                    str(specdir / "full4.json"), "--samples", "40", "--shots", "8",
                    "--seed", "1"])
        assert code == 1
        assert "std error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["man", "m2x1.json", "full4.json", "--method", "mc", "--samples", "0"],
         "samples must be >= 1"),
        (["markov-check", "diag2.json", "full2.json", "--epsilon", "0.5", "--samples", "0"],
         "samples and state_samples must be >= 1"),
        (["orbit-avg", "m2x1.json", "m2x1.json", "--samples", "0"], "samples must be >= 1"),
        (["protocol", "stochastic", "m2x1.json", "bell4.json", "--samples", "200",
          "--shots", "0"], "shots must be >= 1"),
        (["protocol", "stochastic", "m2x1.json", "bell4.json", "--shots", "0"],
         "shots must be >= 1"),
        (["protocol", "stochastic", "m2x1.json", "bell4.json", "--shots", "8"],
         "shots need sampled mode: the exact mode draws no swap tests"),
        (["markov-check", "diag2.json", "full2.json", "--epsilon", "nan"],
         "epsilon must be positive and finite"),
        (["markov-check", "diag2.json", "full2.json", "--epsilon", "inf"],
         "epsilon must be positive and finite"),
    ])
    def test_zero_counts_are_refused(self, specdir, capsys, argv, message):
        argv = [str(specdir / a) if a.endswith(".json") else a for a in argv]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"manlab: ValueError: {message}\n"

    @pytest.mark.parametrize("argv, flag", [
        (["--site-dim", "0"], "--site-dim"),
        (["--site-dim", "-2", "--sites", "2"], "--site-dim"),
        (["--sites", "0"], "--sites"),
        (["--site-dim", "2", "--sites", "7"], "--sites"),
        (["--site-dim", "2", "--sites", "40", "--pairs"], "--sites"),
        (["--site-dim", "1", "--sites", "40", "--pairs"], "--sites"),  # d = 1, 4^40 pairs
        (["--site-dim", "1", "--sites", "5000"], "--sites"),
    ])
    def test_lattice_sweep_refuses_bad_grids(self, capsys, argv, flag):
        # exit 2 with the flag named, before any grid is built
        assert run(["sweep", "lattice", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"manlab: field '{flag}': ")

    def test_lattice_sweep_guardrail_lifts(self, capsys):
        report = _run_json(capsys, ["sweep", "lattice", "--sites", "7", "--allow-large"])
        assert len(report["result"]["cases"]) == 8

    def test_unit_site_lattice_sweep_within_the_case_bound(self, capsys):
        report = _run_json(capsys, ["sweep", "lattice", "--site-dim", "1", "--sites", "3",
                                    "--pairs"])
        assert len(report["result"]["cases"]) == 64
        assert all(case["S"] == 0.0 for case in report["result"]["cases"])

    def test_stochastic_shots_with_the_full_algebra(self, tmp_path, capsys):
        # ||P_A rho||^2 = 1 rounds just above 1 when A = M_d; the swap test
        # snaps it back instead of refusing the probability
        full = tmp_path / "full8.json"
        full.write_text(json.dumps({"dim": 8, "kind": "full"}))
        struct = tmp_path / "struct8.json"
        struct.write_text(json.dumps({"dim": 8, "kind": "structural", "blocks": [[2, 2], [1, 4]],
                                      "basis_change": _matrix_payload(random_unitary(8, 83))}))
        report = _run_json(capsys, ["protocol", "stochastic", str(full), str(struct),
                                    "--samples", "40", "--shots", "500"])
        assert report["result"]["extras"]["mean_denominator"] == 1.0

    @pytest.mark.parametrize("mode", [["choi"], ["stochastic", "--samples", "20"]])
    def test_shots_beyond_exact_float64_are_refused(self, specdir, capsys, mode):
        argv = ["protocol", mode[0], str(specdir / "m2x1.json"), str(specdir / "bell4.json"),
                *mode[1:], "--shots", str(2**53 + 1)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("manlab: ValueError: shots must be at most 2**53")

    @pytest.mark.parametrize("seed", ["1", "2", "3", "4", "5"])
    def test_ill_conditioned_choi_shots(self, tmp_path, capsys, seed):
        # exact S is 0, but at d = 64 the denominator d(A)/d^2 = 1/4096 sits far
        # inside the shot noise of 1000 shots
        specs = []
        for kind in ("trivial", "full"):
            path = tmp_path / f"{kind}64.json"
            path.write_text(json.dumps({"dim": 64, "kind": kind}))
            specs.append(str(path))
        assert run(["protocol", "choi", *specs, "--shots", "1000", "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("manlab: IllConditionedEstimatorError: ")
        assert captured.err.count("\n") == 1 and "std errors" in captured.err

    def test_dimension_guardrail_cli(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"dim": 81, "kind": "trivial"}))
        assert run(["analyze", str(big)]) == 2
        assert run(["analyze", str(big), "--allow-large"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("field, payload", [
        ("dim", {"dim": 2.7, "kind": "full"}),
        ("dim", {"dim": True, "kind": "full"}),
        ("dim", {"dim": "4", "kind": "full"}),
        ("dim", {"dim": None, "kind": "full"}),
        ("region", {"dim": 4, "kind": "lattice", "site_dims": [2, 2], "region": [0.9]}),
        ("site_dims", {"dim": 4, "kind": "lattice", "site_dims": [2, "2"], "region": [0]}),
        ("blocks", {"dim": 4, "kind": "structural", "blocks": [[1.5, 2], [1, 2]]}),
        ("blocks", {"dim": 2, "kind": "structural", "blocks": [[1, False]]}),
    ])
    def test_integer_fields_take_integers_only(self, tmp_path, capsys, field, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert run(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"manlab: {path}: field '{field}': expected an integer")

    def test_integral_floats_are_integers(self):
        spec = spec_from_dict({"dim": 4.0, "kind": "structural", "blocks": [[1.0, 2], [2, 1]]})
        assert spec == spec_from_dict({"dim": 4, "kind": "structural", "blocks": [[1, 2], [2, 1]]})
        assert all(type(x) is int for x in (spec.dim, *spec.blocks[0], *spec.blocks[1]))

    @pytest.mark.parametrize("content, message", [
        ("[" * 100_000 + "]" * 100_000, "JSON nested too deeply"),
        ('{"dim": 1e999, "kind": "full"}', "field 'dim': expected an integer, got inf"),
        ('{"dim": 2, "kind": "full", "label": "\xe9"}'.encode("latin-1"), "not UTF-8 text"),
    ], ids=["deep", "overflow", "latin-1"])
    @pytest.mark.parametrize("role", ["spec", "unitary"])
    def test_unreadable_files_exit_2(self, specdir, tmp_path, capsys, content, message, role):
        path = tmp_path / "bad.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        if role == "spec":
            argv = ["analyze", str(path)]
        else:
            argv = ["aotoc", str(specdir / "full2.json"), "--unitary", str(path)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"manlab: {path}: {message}")
        assert captured.err.count("\n") == 1

    def test_entry_too_large_for_a_float_is_refused(self):
        mat = [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]
        with pytest.raises(SpecFileError, match="unitary"):
            spec_from_dict({"dim": 2, "kind": "masa", "unitary": mat})

    def test_allocation_failure_is_one_line(self, specdir, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 4.00 GiB")

        monkeypatch.setattr(cli, "_dispatch", exhausted)
        assert run(["analyze", str(specdir / "full4.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "manlab: MemoryError: Unable to allocate 4.00 GiB\n"


ADDRESS_SPACE_CAP = 3 * 2**30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


class TestStructureSolverMemory:
    # Algebra dimensions 80 and 128 at d = 16: a commutant solved from the
    # whole basis stack needs a 6.25 or 16 GiB SVD factor here.
    @pytest.mark.parametrize("blocks", [((1, 8), (2, 4)), ((1, 8), (1, 8))])
    def test_generic_d16_generators_analyze_under_cap(self, blocks, tmp_path):
        ref = structural_algebra(blocks, random_unitary(16, 11))
        gens = [ref.project(random_matrix(16, seed)) for seed in (1, 2)]
        spec = tmp_path / "gens.json"
        spec.write_text(json.dumps({"dim": 16, "kind": "generators",
                                    "matrices": [_matrix_payload(g) for g in gens]}))
        src = os.path.dirname(os.path.dirname(manlab.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "manlab.cli", "analyze", str(spec)],
            env=env, capture_output=True, text=True, timeout=600,
            preexec_fn=_cap_address_space,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)["result"]
        assert sorted(zip(result["n"], result["d_blocks"])) == sorted(blocks)


def _generators_spec(path, blocks, d):
    """A generators spec: two random elements of a rotated structural algebra."""
    ref = structural_algebra(blocks, random_unitary(d, 11))
    gens = [ref.project(random_matrix(d, seed)) for seed in (1, 2)]
    path.write_text(json.dumps({"dim": d, "kind": "generators",
                                "matrices": [_matrix_payload(g) for g in gens]}))


def _capped_cli(args):
    """`python -m manlab.cli ARGS` in a child with one BLAS thread under the cap."""
    src = os.path.dirname(os.path.dirname(manlab.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "manlab.cli", *args],
        env=env, capture_output=True, text=True, timeout=600,
        preexec_fn=_cap_address_space,
    )


class TestKrylovClosureMemory:
    # Algebra dimension 320 at d = 32: a closure over all pairwise products
    # stacks the basis and its 102400 products, 102720 x 1024 entries
    # (1.57 GiB), in one round.
    def test_d32_generators_selfman_under_cap(self, tmp_path):
        blocks = ((1, 16), (2, 8))
        spec = tmp_path / "gens32.json"
        _generators_spec(spec, blocks, 32)
        proc = _capped_cli(["selfman", str(spec)])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)["result"]
        want = 1.0 - sum(n / dj for n, dj in blocks) / 32
        assert abs(result["S"] - want) <= 1e-9


_PEAK_RSS_RUNNER = (
    "import contextlib, io, json, resource, sys\n"
    "from manlab import cli\n"
    "out = io.StringIO()\n"
    "with contextlib.redirect_stdout(out):\n"
    "    code = cli.run(sys.argv[1:])\n"
    "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
    "print(json.dumps({'code': code, 'report': out.getvalue(), 'peak_rss_mib': rss}))\n"
)


def _peak_rss_cli(args):
    """Run the CLI in a capped child with one BLAS thread: (report, peak RSS in MiB)."""
    src = os.path.dirname(os.path.dirname(manlab.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_RUNNER, *args],
        env=env, capture_output=True, text=True, timeout=600,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    usage = json.loads(proc.stdout)
    assert usage["code"] == 0, proc.stderr
    return json.loads(usage["report"]), usage["peak_rss_mib"]


class TestCenterMemory:
    # sampled self mode projects onto Z(A); taken as A intersected with A', the
    # center of the trivial d = 64 algebra built A' = M_64, a 268 MiB basis
    def test_d64_sampled_self_mode_stays_small(self, tmp_path):
        spec = tmp_path / "triv64.json"
        spec.write_text(json.dumps({"dim": 64, "kind": "trivial"}))
        report, rss = _peak_rss_cli(["protocol", "stochastic", str(spec), "--samples", "20"])
        assert abs(report["result"]["estimate"]) <= 1e-12
        assert rss < 100, rss


class TestSpectralSolveFrontier:
    # generators specs beyond the reach of a closure: at d = 64 (dim 1280) the
    # closure and the center system took 16 s and 889 MiB for one selfman
    @pytest.mark.parametrize("d, blocks", [(64, ((1, 32), (2, 16))), (128, ((2, 32), (4, 16)))])
    def test_generators_selfman_and_man(self, d, blocks, tmp_path):
        spec = tmp_path / f"gens{d}.json"
        _generators_spec(spec, blocks, d)
        want = 1.0 - sum(n / dj for n, dj in blocks) / d
        for argv in (["selfman", str(spec)], ["man", str(spec), str(spec)]):
            proc = _capped_cli(argv + ["--allow-large"])
            assert proc.returncode == 0, proc.stderr
            report = json.loads(proc.stdout)
            assert abs(report["result"]["S"] - want) <= 1e-9, argv
            if d == 64:
                # parse, solve and engine; about 0.1-0.2 s on one core
                assert report["wall_time_s"] < 1.0, argv


class TestLargeAmbientMemory:
    # d = 256 with --allow-large: a dense basis of M_256 alone is 64 GiB, so
    # these commands run only because no route builds one
    D = 256

    @pytest.fixture(scope="class")
    def specs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("d256")
        files = {
            "full": {"dim": self.D, "kind": "full"},
            "structural": {"dim": self.D, "kind": "structural", "blocks": [[2, 64], [1, 128]],
                           "basis_change": _matrix_payload(random_unitary(self.D, 2561))},
            "lat_a": {"dim": self.D, "kind": "lattice", "site_dims": [2] * 8,
                      "region": [0, 1, 2, 3]},
            "lat_b": {"dim": self.D, "kind": "lattice", "site_dims": [2] * 8,
                      "region": [2, 3, 4, 5, 6]},
            # d blocks: one d x d matrix per block would hold d^3 entries (256 MiB)
            "masa": {"dim": self.D, "kind": "masa",
                     "unitary": _matrix_payload(random_unitary(self.D, 2562))},
        }
        # the cyclic shift by four of eight qubits: it maps A_{4..7} onto A_{0..3}
        idx = np.arange(self.D)
        shift = np.zeros((self.D, self.D))
        shift[((idx << 4) | (idx >> 4)) & (self.D - 1), idx] = 1.0
        files["shift"] = {"dim": self.D, "matrix": _matrix_payload(shift)}
        files["eye"] = {"dim": self.D, "matrix": _matrix_payload(np.eye(self.D))}
        paths = {}
        for name, payload in files.items():
            paths[name] = root / f"{name}.json"
            paths[name].write_text(json.dumps(payload))
        return {name: str(path) for name, path in paths.items()}

    def test_d256_commands_under_cap(self, specs):
        d2 = self.D**2
        comm_dim = {"full": 1, "structural": 2 * 2 + 1, "lat_a": 16**2, "lat_b": 8**2}
        self_s = {"full": 1 - 1 / d2, "structural": 1 - (2 / 64 + 1 / 128) / self.D,
                  "lat_a": 1 - 1 / self.D, "lat_b": 1 - (8 / 32) / self.D}
        pair_s = {("full", "structural"): 1 - 5 / d2, ("structural", "full"): 1 - 5 / d2,
                  ("lat_a", "lat_b"): 1 - 2.0 ** (-2 * 2)}
        runs = [(["selfman", specs[name]], "S", want) for name, want in self_s.items()]
        for (a, b), want in pair_s.items():
            orbit = ((1 - comm_dim[a] / d2) * (1 - comm_dim[b] / d2) / (1 - 1 / d2))
            runs += [(["man", specs[a], specs[b]], "S", want),
                     (["orbit-avg", specs[a], specs[b]], "value", orbit)]
        # S(A : U A' U^dag): A' = C1 for M_d, A' itself under the identity, and
        # the shift takes the commutant of A_{0..3} onto A_{0..3}
        runs += [(["aotoc", specs["full"], "--unitary", specs["shift"]], "S", 0.0),
                 (["aotoc", specs["structural"], "--unitary", specs["eye"]], "S", 0.0),
                 (["aotoc", specs["lat_a"], "--unitary", specs["shift"]], "S", 1 - 2.0**-8)]
        # an abelian algebra is its own commutant: S(A:A) = 0
        runs += [(["selfman", specs["masa"]], "S", 0.0),
                 (["aotoc", specs["masa"], "--unitary", specs["eye"]], "S", 0.0)]
        for argv, key, want in runs:
            report, rss = _peak_rss_cli(argv + ["--allow-large"])
            assert abs(report["result"][key] - want) <= 1e-9, (argv, report["result"][key], want)
            assert rss < 512, (argv, rss)


def _imported_modules(args):
    """Modules a child `python -X importtime ARGS` imports, read from its stderr."""
    src = os.path.dirname(os.path.dirname(manlab.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


class TestColdImports:
    # numpy.random costs a fresh process more than a whole structure solve, and
    # the protocol simulators are not needed by commands that do not sample.
    # numpy 1.x imports numpy.random with numpy itself, hence the baseline.
    SAMPLING = {"numpy.random", "manlab.protocols"}

    def test_exact_commands_import_no_sampler(self, specdir, tmp_path):
        sx, sz = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
        gens = tmp_path / "gens.json"
        gens.write_text(json.dumps({"dim": 4, "kind": "generators", "matrices": [
            _matrix_payload(np.kron(sx, np.eye(2))), _matrix_payload(np.kron(sz, np.eye(2)))]}))
        baseline = _imported_modules(["-c", "import numpy"]) & self.SAMPLING
        g, s = str(gens), str(specdir / "sym2.json")
        argvs = [["analyze", g], ["selfman", g], ["man", g, g], ["man", s, s],
                 ["lattice", str(specdir / "lat01.json"), str(specdir / "lat12.json")],
                 ["masa", str(specdir / "diag2.json"), str(specdir / "had2.json")]]
        for argv in argvs:
            loaded = _imported_modules(["-m", "manlab.cli", *argv]) & self.SAMPLING
            assert loaded <= baseline, (argv, loaded - baseline)

    def test_generators_commands_load_no_masked_arrays(self, specdir, tmp_path):
        # np.unique imports numpy.ma on its first call, about 9 ms of a command; the
        # structure solve and dim(A n B') need nothing of it
        sx, sz = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
        gens = tmp_path / "gens.json"
        gens.write_text(json.dumps({"dim": 4, "kind": "generators", "matrices": [
            _matrix_payload(np.kron(sx, np.eye(2))), _matrix_payload(np.kron(sz, np.eye(2)))]}))

        def masked(args):
            return {m for m in _imported_modules(args) if m == "numpy.ma" or m.startswith("numpy.ma.")}

        baseline = masked(["-c", "import numpy"])
        g, z = str(gens), str(specdir / "genz.json")
        for argv in (["analyze", g], ["selfman", g], ["man", g, g], ["bounds", g, g],
                     ["analyze", z]):
            loaded = masked(["-m", "manlab.cli", *argv])
            assert loaded <= baseline, (argv, loaded - baseline)

    def test_lattice_commands_load_no_numpy(self, specdir):
        # the closed form is integer arithmetic: no numpy, no engine
        lat = [str(specdir / "lat01.json"), str(specdir / "lat12.json")]
        for argv in (["lattice", *lat], ["lattice", *lat, "--csv", str(specdir / "l.csv")],
                     ["sweep", "lattice"], ["sweep", "lattice", "--sites", "2", "--pairs"]):
            loaded = _imported_modules(["-m", "manlab.cli", *argv])
            assert not {m for m in loaded if m == "numpy" or m.startswith("numpy.")}, argv
            assert {m for m in loaded if m.startswith("manlab.")} == {
                "manlab.errors", "manlab.report", "manlab.specio"}, argv

    def test_masa_commands_load_no_engine(self, specdir):
        # one overlap matrix: numpy, but no structure solve and no random streams
        for command in ("masa", "quantumness"):
            loaded = _imported_modules(["-m", "manlab.cli", command, str(specdir / "diag2.json"),
                                        str(specdir / "had2.json")])
            assert "manlab.masa" in loaded, command
            assert not loaded & {"manlab.algebras", "manlab.man", "manlab.rng"}, command

    def test_numeric_commands_freeze_after_their_imports(self, specdir):
        # gc.freeze() must see numpy and the engine already loaded, or their
        # objects stay in the collector's generations for the whole command
        probe = (
            "import gc, json, sys\n"
            "import manlab.cli\n"
            "seen = []\n"
            "gc.freeze = lambda: seen.append(sorted(m for m in sys.modules\n"
            "                                       if m == 'numpy' or m.startswith('manlab.')))\n"
            "sys.argv = ['manlab', *sys.argv[1:]]\n"
            "try:\n"
            "    manlab.cli.main()\n"
            "except SystemExit as exc:\n"
            "    print(json.dumps({'code': exc.code, 'seen': seen}), file=sys.stderr)\n"
        )
        src = os.path.dirname(os.path.dirname(manlab.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        s, g = str(specdir / "sym2.json"), str(specdir / "genz.json")
        engine = {"numpy", "manlab.algebras", "manlab.linalg", "manlab.man", "manlab.rng"}
        for argv, modules in ((["man", s, s], engine), (["bounds", s, s], engine),
                              (["analyze", g], engine),
                              (["man", s, s, "--method", "mc", "--samples", "10"],
                               engine | {"manlab.protocols"})):
            proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                                  capture_output=True, text=True, timeout=600)
            outcome = json.loads(proc.stderr.splitlines()[-1])
            assert outcome["code"] == 0, proc.stderr
            (seen,) = outcome["seen"]
            assert modules <= set(seen), (argv, modules - set(seen))

    def test_numeric_commands_load_the_engine_and_no_oracles(self, specdir):
        # the d^2 x d^2 oracles live in manlab.oracles, which no command compiles;
        # every `protocol` variant runs in manlab.protocols, the exact choi mode too
        engine = {f"manlab.{name}" for name in ("errors", "report", "specio", "masa", "rng",
                                                "linalg", "algebras", "man")}
        g, s, m = (str(specdir / name) for name in ("genz.json", "sym2.json", "m2x1.json"))
        exact = [["analyze", g], ["selfman", g], ["man", g, g], ["bounds", g, g],
                 ["aotoc", m, "--unitary", str(specdir / "swap_u.json")]]
        sampling = [["man", s, s, "--method", "mc", "--samples", "10"],
                    ["markov-check", s, s, "--epsilon", "0.5", "--samples", "10"],
                    ["protocol", "stochastic", m, s, "--samples", "10"], ["protocol", "choi", m, s]]
        for argvs, modules in ((exact, engine),
                               (sampling, engine | {"manlab.protocols", "manlab.purestates"})):
            for argv in argvs:
                loaded = {name for name in _imported_modules(["-m", "manlab.cli", *argv])
                          if name.startswith("manlab.")}
                assert loaded == modules, (argv, loaded ^ modules)

    def test_sampling_commands_load_no_numpy_random(self, specdir):
        # every draw, the binomial shots included, comes from the counter hash
        baseline = _imported_modules(["-c", "import numpy"]) & self.SAMPLING
        s, m = str(specdir / "sym2.json"), str(specdir / "m2x1.json")
        argvs = [["man", s, s, "--method", "mc", "--samples", "10"],
                 ["orbit-avg", s, s, "--samples", "10"],
                 ["protocol", "stochastic", m, s, "--samples", "10"],
                 ["markov-check", s, s, "--epsilon", "0.5", "--samples", "10"],
                 ["protocol", "choi", m, s], ["protocol", "stochastic", m, s],
                 ["protocol", "choi", m, s, "--shots", "100"],
                 ["protocol", "stochastic", m, s, "--samples", "10", "--shots", "100"]]
        for argv in argvs:
            loaded = _imported_modules(["-m", "manlab.cli", *argv]) & self.SAMPLING
            assert loaded - baseline == {"manlab.protocols"}, (argv, loaded - baseline)


class TestProtocolChoiMemory:
    # d = 64 collinear pair in Haar position: two d^2 x d^2 Choi states need
    # about 1.1 GiB peak RSS; the block overlap needs only d x d objects
    def test_d64_protocol_choi_stays_small(self, tmp_path):
        specs = []
        for name, blocks, seed in (("a", [(4, 4)] * 4, 1), ("b", [(16, 2), (8, 4)], 2)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                "dim": 64, "kind": "structural", "blocks": [list(b) for b in blocks],
                "basis_change": _matrix_payload(haar_unitary(64, RngStream(seed))),
            }))
            specs.append(str(path))
        report, rss = _peak_rss_cli(["protocol", "choi", *specs])
        result = report["result"]
        a = structural_algebra([(4, 4)] * 4, haar_unitary(64, RngStream(1)))
        b = structural_algebra([(16, 2), (8, 4)], haar_unitary(64, RngStream(2)))
        assert abs(result["estimate"] - man_omega(a, b).S) <= 1e-9
        assert rss < 100, rss


class TestCsv:
    def test_single_row(self, specdir, tmp_path, capsys):
        out = tmp_path / "row.csv"
        _run_json(capsys, ["man", str(specdir / "m2x1.json"), str(specdir / "full4.json"),
                           "--csv", str(out)])
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert abs(float(rows[0]["S"]) - 0.75) < 1e-12
        assert rows[0]["method"] == "man.omega"

    def test_lattice_sweep_values(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        _run_json(capsys, ["sweep", "lattice", "--site-dim", "2", "--sites", "3",
                           "--csv", str(out)])
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        got = [float(r["S"]) for r in rows]
        assert np.allclose(got, [0.0, 0.75, 0.9375, 0.984375])

    def test_selfman_sweep_values(self, tmp_path, capsys):
        out = tmp_path / "nc.csv"
        _run_json(capsys, ["sweep", "selfman", "--dims", "1", "2", "3", "4",
                           "--csv", str(out)])
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        got = [float(r["S"]) for r in rows]
        expected = [1 - 1 / dj**2 for dj in (1, 2, 3, 4)]
        assert np.allclose(got, expected)

    def test_empty_sweep_is_header_only(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        _run_json(capsys, ["sweep", "selfman", "--dims", "--csv", str(out)])
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("case,method,S,S2")

    @pytest.mark.parametrize("argv, want", [
        # flat bounds record, collinear A: all three bound columns filled
        (["bounds", "m2x1.json", "full4.json"],
         lambda r: {"S": r["S"], "S2": r["S2"], "commutant_bound": r["commutant_bound"],
                    "weak_bound": r["weak_bound"],
                    "intersection_bound": r["intersection_bound"],
                    "std_error": "", "samples": ""}),
        # the exact orbit value, not the Monte-Carlo one
        (["orbit-avg", "m2x1.json", "full4.json", "--samples", "40"],
         lambda r: {"S": r["value"], "S2": "", "commutant_bound": "", "std_error": "",
                    "samples": ""}),
        (["man", "m2x1.json", "full4.json", "--method", "mc", "--samples", "40"],
         lambda r: {"S": r["estimate"], "S2": "", "std_error": r["std_error"],
                    "samples": 40}),
        (["protocol", "stochastic", "m2x1.json", "full4.json", "--samples", "40"],
         lambda r: {"S": r["estimate"], "std_error": r["std_error"], "samples": 40}),
        (["masa", "diag2.json", "had2.json"],
         lambda r: {"S": r["S"], "S2": r["S2"], **r["bounds"], "intersection_bound": "",
                    "std_error": ""}),
        (["quantumness", "diag2.json", "had2.json"],
         lambda r: {"S": r["S"], "S2": "", "commutant_bound": "", "weak_bound": ""}),
        (["analyze", "m2x1.json"], None),
        (["markov-check", "m2x1.json", "full4.json", "--epsilon", "0.5", "--samples", "20",
          "--state-samples", "2"], None),
    ], ids=["bounds", "orbit-avg", "mc", "stochastic", "masa", "quantumness", "analyze",
            "markov-check"])
    def test_row_of_every_command(self, specdir, tmp_path, capsys, argv, want):
        out = tmp_path / "rows.csv"
        argv = [str(specdir / x) if x.endswith(".json") else x for x in argv]
        result = _run_json(capsys, argv + ["--seed", "5", "--csv", str(out)])["result"]
        if want is None:
            assert out.read_text().splitlines() == [",".join(cli.CSV_COLUMNS)]
            return
        with open(out) as fh:
            (row,) = list(csv.DictReader(fh))
        assert (row["method"], row["seed"]) == (result["method"], "5")
        for column, value in want(result).items():
            assert row[column] == str(value), column

    def test_unwritable_path(self, specdir, capsys):
        code = run(["man", str(specdir / "full2.json"), str(specdir / "full2.json"),
                    "--csv", "/nonexistent-dir/x.csv"])
        assert code == 1
