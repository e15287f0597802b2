import json
import subprocess
import sys

import numpy as np
import pytest

from qichan import serialize
from qichan.catalog import dephasing_channel, sic_tetrahedron
from qichan.channels import Channel, DiscreteObservable
from qichan.cli import main
from qichan.correction import CodeSubspace
from qichan.errors import SchemaError, ValidationError
from qichan.rand import generator, random_channel


class TestCanonicalJson:
    def test_floats_survive_round_trip(self):
        values = [0.1, 1 / 3, np.pi, 1e-300, -0.0, 123456.789]
        text = serialize.dumps_canonical(values)
        back = json.loads(text)
        for a, b in zip(values, back):
            assert float(a) == float(b)

    def test_sorted_keys_deterministic(self):
        obj = {"b": 1, "a": [1.5, {"z": 2.0, "y": None}]}
        assert serialize.dumps_canonical(obj) == serialize.dumps_canonical(dict(reversed(obj.items())))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            serialize.dumps_canonical(float("nan"))


class TestChannelFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        c = random_channel(generator(0), 3, 2, 4)
        path = tmp_path / "c.json"
        serialize.write_channel_file(path, c)
        back = serialize.parse_channel_file(path)
        assert back.dim_in == c.dim_in and back.dim_out == c.dim_out
        for e1, e2 in zip(c.elements, back.elements):
            assert np.array_equal(e1, e2)
        # re-emitting produces identical bytes
        path2 = tmp_path / "c2.json"
        serialize.write_channel_file(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_observable_round_trip(self, tmp_path):
        x = sic_tetrahedron()
        path = tmp_path / "x.json"
        serialize.write_observable_file(path, x)
        back = serialize.parse_observable_file(path)
        for e1, e2 in zip(x.effects, back.effects):
            assert np.array_equal(e1, e2)

    def test_non_trace_preserving_rejected(self, tmp_path):
        bad = Channel.from_elements([2 * np.eye(2, dtype=complex)])
        path = tmp_path / "bad.json"
        serialize.write_channel_file(path, bad)
        with pytest.raises(ValidationError) as err:
            serialize.parse_channel_file(path)
        assert "E^dag E" in str(err.value)
        assert err.value.residual > 1

    def test_schema_errors_name_the_field(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim_in": 2, "elements": [[[1, 0]]]}')
        with pytest.raises(SchemaError) as err:
            serialize.parse_channel_file(path)
        assert "dim_out" in str(err.value)
        path.write_text('{"dim_in": 2, "dim_out": 2, "elements": [[[1, 0]]]}')
        with pytest.raises(SchemaError):
            serialize.parse_channel_file(path)

    def test_detect_kind(self, tmp_path):
        cpath = tmp_path / "c.json"
        serialize.write_channel_file(cpath, dephasing_channel(2))
        xpath = tmp_path / "x.json"
        serialize.write_observable_file(xpath, sic_tetrahedron())
        assert serialize.detect_kind(cpath) == ("channel", json.loads(cpath.read_text()))
        assert serialize.detect_kind(xpath) == ("observable", json.loads(xpath.read_text()))

    def test_code_round_trip(self, tmp_path):
        v = np.zeros((8, 2), dtype=complex)
        v[0, 0] = v[7, 1] = 1.0
        code = CodeSubspace.from_isometry(v)
        path = tmp_path / "code.json"
        serialize.write_code_file(path, code)
        back = serialize.parse_code_file(path)
        assert np.array_equal(back.v, code.v)


def _strip_timestamp(text):
    data = json.loads(text)
    data.pop("generated_at", None)
    return json.dumps(data, sort_keys=True)


class TestCli:
    def _channel_file(self, tmp_path):
        path = tmp_path / "deph.json"
        serialize.write_channel_file(path, dephasing_channel(2))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        rc = main(["validate", self._channel_file(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert report["results"]["valid"] is True
        assert report["results"]["kind"] == "channel"

    def test_validate_bad_channel_exits_two(self, tmp_path, capsys):
        bad = Channel.from_elements([2 * np.eye(2, dtype=complex)])
        path = tmp_path / "bad.json"
        serialize.write_channel_file(path, bad)
        rc = main(["validate", str(path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["results"]["valid"] is False

    @pytest.mark.parametrize(
        "invariant, effects",
        [
            # each breaks its invariant by 10 tol at the default tol = 1e-9
            ("hermiticity", [[[0.5, 1e-8], [0, 0.5]], [[0.5, -1e-8], [0, 0.5]]]),
            ("min_eigenvalue", [[[-1e-8, 0], [0, 0]], [[0.5 + 1e-8, 0], [0, 0.5]], [[0.5, 0], [0, 0.5]]]),
            ("max_eigenvalue", [[[1 + 1e-8, 0], [0, 1]]]),
            ("completeness", [[[0.5, 0], [0, 0.5]], [[0.5, 0], [0, 0.5 + 1e-8]]]),
        ],
    )
    def test_observable_invariants_share_one_rule(self, tmp_path, capsys, invariant, effects):
        # validate says "no" (2); commands that need a valid observable
        # refuse the input (1, ValidationError)
        x = DiscreteObservable.from_effects([np.array(e, dtype=complex) for e in effects])
        path = tmp_path / "x.json"
        serialize.write_observable_file(path, x)
        assert main(["validate", str(path)]) == 2
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["valid"] is False
        excess = {
            "hermiticity": results["hermiticity"],
            "min_eigenvalue": -results["min_eigenvalue"],
            "max_eigenvalue": results["max_eigenvalue"] - 1,
            "completeness": results["completeness"],
        }[invariant]
        assert excess > 5e-9
        assert main(["capacity", str(path), "--restarts", "1"]) == 1
        assert "invariant violated" in capsys.readouterr().err
        with pytest.raises(ValidationError):
            serialize.parse_observable_file(path)

    def test_missing_file_exits_one(self, capsys):
        rc = main(["validate", "/nonexistent/x.json"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            b'{"dim_in": 1, "dim_out": 1, "elements": [[[NaN, 0]]]}',
            b'{"dim_in": 1, "dim_out": 1, "elements": [[[1, -Infinity]]]}',
            b'{"dim_in": 1, "dim_out": 1, "elements": [[[1e400, 0]]]}',
            '{"dim_in": 1, "dim_out": 1, "elements": [[[1, 0]]], "note": "\u00e9"}'.encode("latin-1"),
        ],
        ids=["nan", "infinity", "overflow", "not-utf8"],
    )
    def test_malformed_file_exits_one(self, tmp_path, capsys, content):
        path = tmp_path / "c.json"
        path.write_bytes(content)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_preserved_report(self, tmp_path, capsys):
        rc = main(["preserved", self._channel_file(tmp_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        blocks = report["results"]["preserved_algebra"]["block_dims"]
        assert blocks == [[1, 1], [1, 1]]

    def test_kl_pass_and_fail_exit_codes(self, tmp_path, capsys):
        from qichan.catalog import bitflip3_channel, repetition_code

        cpath = tmp_path / "bf.json"
        serialize.write_channel_file(cpath, bitflip3_channel((0.4, 0.2, 0.2, 0.2)))
        kpath = tmp_path / "code.json"
        serialize.write_code_file(kpath, repetition_code())
        assert main(["kl", str(cpath), "--code", str(kpath)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["passes"] is True

        from qichan.catalog import PAULI_Z, pauli_on

        zpath = tmp_path / "z.json"
        z = Channel.from_elements(
            [np.sqrt(0.5) * np.eye(8, dtype=complex), np.sqrt(0.5) * pauli_on(3, 0, PAULI_Z)]
        )
        serialize.write_channel_file(zpath, z)
        assert main(["kl", str(zpath), "--code", str(kpath)]) == 2

    def test_classical_feasible_and_not(self, tmp_path, capsys):
        gamma = tmp_path / "gamma.json"
        serialize.write_observable_file(gamma, sic_tetrahedron())
        x = tmp_path / "x.json"
        from qichan.catalog import shrinking_channel
        from qichan.channels import DiscreteObservable, apply_dual

        eff = apply_dual(shrinking_channel(1 / 3), np.diag([1.0, 0]).astype(complex))
        serialize.write_observable_file(
            x,
            DiscreteObservable.from_effects([eff, np.eye(2, dtype=complex) - eff]),
        )
        assert main(["classical", str(x), "--gamma", str(gamma)]) == 0
        capsys.readouterr()

        xb = tmp_path / "xb.json"
        serialize.write_observable_file(xb, DiscreteObservable.from_effects(
            [np.diag([1.0, 0]).astype(complex), np.diag([0, 1.0]).astype(complex)]
        ))
        gz = tmp_path / "gz.json"
        from qichan.catalog import PAULI_X

        serialize.write_observable_file(gz, DiscreteObservable.from_effects(
            [(np.eye(2, dtype=complex) + PAULI_X) / 2, (np.eye(2, dtype=complex) - PAULI_X) / 2]
        ))
        assert main(["classical", str(xb), "--gamma", str(gz)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["feasible"] is False
        assert 1e-7 < report["results"]["certified_lower_bound"] <= report["results"]["residual"]

        # the sampled check of a channel certifies its "no" the same way
        from qichan.channels import unitary_channel
        from qichan.rand import generator, random_unitary

        upath = tmp_path / "u.json"
        serialize.write_channel_file(upath, unitary_channel(random_unitary(generator(4), 2)))
        assert main(["classical", str(upath), "--gamma", str(xb), "--samples", "8"]) == 2
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["feasible"] < results["samples"]
        assert 1e-7 < results["certified_lower_bound"] <= results["max_residual"]

    def test_sweep_csv_row_count(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--env-size", "4", "--total-time", "1", "--steps", "11",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,i,m,gamma"
        assert len(lines) - 1 == 11 * 4 * 4

    def test_region_csv(self, tmp_path):
        cpath = tmp_path / "c.json"
        serialize.write_channel_file(cpath, dephasing_channel(2))
        out = tmp_path / "region.csv"
        rc = main(["region", str(cpath), "--grid", "6", "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,z,t"
        assert len(lines) > 10

    def test_capacity_command(self, tmp_path, capsys):
        xpath = tmp_path / "x.json"
        serialize.write_observable_file(xpath, sic_tetrahedron())
        rc = main(["capacity", str(xpath), "--restarts", "3"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert 0 < report["results"]["bits"] <= 2.0
        assert len(report["results"]["ensemble"]["priors"]) >= 2

    def test_capacity_bound_is_holevo_bound(self, tmp_path, capsys):
        # three outcomes on a qubit carry at most log2(2) = 1 bit
        xpath = tmp_path / "x.json"
        trivial = DiscreteObservable.from_effects([np.eye(2, dtype=complex) / 3] * 3)
        serialize.write_observable_file(xpath, trivial)
        assert main(["capacity", str(xpath), "--restarts", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["upper_bound_bits"] == 1.0

    def test_report_determinism_modulo_timestamp(self, tmp_path, capsys):
        path = self._channel_file(tmp_path)
        main(["preserved", path, "--seed", "3"])
        first = capsys.readouterr().out
        main(["preserved", path, "--seed", "3"])
        second = capsys.readouterr().out
        assert _strip_timestamp(first) == _strip_timestamp(second)

    def test_example_writes_artifacts(self, tmp_path):
        outdir = tmp_path / "bundle"
        rc = main(["example", "sweep", "--out", str(outdir)])
        assert rc == 0
        names = {p.name for p in outdir.iterdir()}
        assert "sweep.report.json" in names
        assert "sweep.gamma.csv" in names

    def test_oqec_command(self, tmp_path, capsys):
        from qichan.catalog import bitflip3_channel, repetition_code

        cpath = tmp_path / "bf.json"
        serialize.write_channel_file(cpath, bitflip3_channel((0.4, 0.2, 0.2, 0.2)))
        kpath = tmp_path / "code.json"
        serialize.write_code_file(kpath, repetition_code())
        rc = main(["oqec", str(cpath), "--code", str(kpath), "--split", "2,1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["passes"] is True
        assert report["results"]["split"] == [2, 1]

    def test_correct_with_code_emits_operator_system(self, tmp_path, capsys):
        from qichan.catalog import bitflip3_channel, repetition_code

        cpath = tmp_path / "bf.json"
        serialize.write_channel_file(cpath, bitflip3_channel((0.4, 0.2, 0.2, 0.2)))
        kpath = tmp_path / "code.json"
        serialize.write_code_file(kpath, repetition_code())
        rc = main(["correct", str(cpath), "--code", str(kpath)])
        assert rc == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["code_algebra"]["block_dims"] == [[2, 1]]
        assert len(results["operator_system_basis"]) == 4
        assert results["residuals"]["fixed_point"] < 1e-7

    def test_pointer_and_broadcast_commands(self, tmp_path, capsys):
        from qichan.catalog import antisym_joint_channel

        cpath = tmp_path / "deph.json"
        serialize.write_channel_file(cpath, dephasing_channel(2))
        assert main(["pointer", str(cpath)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["pointer_algebra"]["block_dims"] == [[1, 1], [1, 1]]

        jpath = tmp_path / "joint.json"
        serialize.write_channel_file(jpath, antisym_joint_channel())
        assert main(["broadcast", str(jpath), "--dims", "3,3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["broadcast_algebra"]["block_dims"] == [[1, 3]]

    def test_seed_env_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QICHAN_SEED", "17")
        from qichan import cli as cli_mod

        parser = cli_mod.build_parser()
        args = parser.parse_args(["preserved", self._channel_file(tmp_path)])
        assert args.seed == 17

    def test_malformed_seed_env_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QICHAN_SEED", "abc")
        rc = main(["preserved", self._channel_file(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "usage:" in err and "Traceback" not in err

    def test_samples_where_read(self):
        from qichan import cli as cli_mod

        parser = cli_mod.build_parser()
        assert parser.parse_args(["example", "dephasing", "--samples", "8"]).samples == 8
        args = parser.parse_args(["classical", "x.json", "--gamma", "g.json", "--samples", "8"])
        assert args.samples == 8

    @pytest.mark.parametrize(
        "argv",
        [
            ["kl", "{channel}"],
            ["oqec", "{channel}", "--code", "{code}", "--split", "2"],
            ["broadcast", "{channel}", "--dims", "2,x"],
            ["sweep", "--times", "a"],
            ["preserved", "{channel}", "--format", "csv"],
            ["pointer", "{channel}", "--samples", "8"],
            ["sweep", "--steps", "-1"],
            ["sweep", "--total-time", "0"],
            ["sweep", "--env-size", "0"],
            ["region", "{channel}", "--grid", "0"],
            ["classical", "{channel}", "--gamma", "{channel}", "--samples", "0"],
            ["example", "sic-cloner", "--samples", "0"],
        ],
        ids=[
            "kl-without-code", "split", "dims", "times", "format-unread", "samples-unread",
            "steps-negative", "total-time-zero", "env-size-zero", "grid-zero",
            "classical-samples-zero", "example-samples-zero",
        ],
    )
    def test_usage_errors_exit_one(self, tmp_path, capsys, argv):
        code = tmp_path / "code.json"
        serialize.write_code_file(code, CodeSubspace.from_isometry(np.eye(2, dtype=complex)))
        paths = {"channel": self._channel_file(tmp_path), "code": str(code)}
        rc = main([a.format(**paths) for a in argv])
        err = capsys.readouterr().err
        assert rc == 1
        assert "usage:" in err and "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_console_entry_point(self, tmp_path):
        path = self._channel_file(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "qichan", "validate", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["valid"] is True
