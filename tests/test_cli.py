"""Command-line interface: config parsing, exit codes, file outputs."""

import argparse
import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import antibunch
from antibunch import cli, figures, fock, states
from antibunch.errors import ConfigError, TruncationError


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


COHERENT_ARMS = {"state_a": {"kind": "coherent", "alpha": 0.3},
                 "state_b": {"kind": "coherent", "alpha": 0.3}}


class TestBuildState:
    def test_every_kind_builds(self):
        specs = [
            {"kind": "fock", "n": 1},
            {"kind": "coherent", "alpha": 0.4},
            {"kind": "phase_modified", "alpha": 0.4},
            {"kind": "kerr_coherent", "alpha": [0.3, 0.0], "chi_t": 0.05},
            {"kind": "vacuum_two_photon", "c2": 0.1},
            {"kind": "cat", "alpha_sch": 0.2, "parity": 1},
            {"kind": "squeezed_vacuum", "xi": 0.05},
            {"kind": "squeezed_coherent", "alpha": 0.3, "xi": [0.05, 0.02]},
        ]
        for spec in specs:
            psi = cli.build_state(spec)
            assert psi.norm() == pytest.approx(1.0, abs=1e-9)

    def test_complex_pair_parsing(self):
        from antibunch import states

        psi_pair = cli.build_state({"kind": "coherent", "alpha": [0.0, 0.5], "dim": 24})
        assert np.allclose(psi_pair.amps, states.coherent(0.5j, 24).amps)
        with pytest.raises(ConfigError, match="re, im"):
            cli.build_state({"kind": "coherent", "alpha": "0.5j"})

    def test_dim_key_and_override(self):
        psi = cli.build_state({"kind": "coherent", "alpha": 0.2, "dim": 9})
        assert psi.dim == 9
        psi = cli.build_state({"kind": "coherent", "alpha": 0.2, "dim": 9}, dim_override=11)
        assert psi.dim == 11

    @pytest.mark.parametrize(
        "spec, dim",
        [({"kind": "coherent", "alpha": 1.5}, 21),
         ({"kind": "phase_modified", "alpha": [0.0, 1.5]}, 21),
         ({"kind": "kerr_coherent", "alpha": 1.5, "chi_t": 0.05}, 21),
         ({"kind": "cat", "alpha_sch": 1.5, "parity": 1}, 21)],
        ids=["coherent", "phase_modified", "kerr_coherent", "cat"],
    )
    def test_amplitude_truncation_rule(self, spec, dim):
        # fock.truncated: |alpha| = 1.5 fits dim 21, the even cat too, not one level fewer.
        assert cli.build_state({**spec, "dim": dim}).dim == dim
        with pytest.raises(TruncationError) as err:
            cli.build_state({**spec, "dim": dim - 1})
        assert err.value.recommended_dim == dim

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown state kind"):
            cli.build_state({"kind": "thermal", "n": 1})

    def test_unknown_and_missing_keys(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            cli.build_state({"kind": "coherent", "alpha": 0.4, "beta": 1})
        with pytest.raises(ConfigError, match="missing keys"):
            cli.build_state({"kind": "kerr_coherent", "alpha": 0.4})

    def test_not_an_object(self):
        with pytest.raises(ConfigError):
            cli.build_state(["coherent"])


class TestG2Command:
    def test_single_state(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "coherent", "alpha": 0.4}})
        assert cli.main(["g2", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["g2"] == pytest.approx(1.0, abs=1e-8)
        assert report["n_mean"] == pytest.approx(0.16, rel=1e-6)
        assert sum(report["p_n"]) == pytest.approx(1.0, abs=1e-9)

    def test_mixed_pair(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "state_a": {"kind": "kerr_coherent", "alpha": 0.3, "chi_t": 0.05},
                "state_b": {"kind": "coherent", "alpha": 0.3},
                "beamsplitter": {"R": 0.3873, "phi": 0.9},
            },
        )
        assert cli.main(["g2", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["g2"] == pytest.approx(0.036066051, rel=1e-5)

    def test_pair_with_unequal_default_truncations(self, tmp_path, capsys):
        # the two-photon arm defaults to 3 levels and the coherent arm to
        # 11, so the pair is mixed at 13; g2 must not depend on the smaller
        # arm's truncation
        from antibunch import states
        from antibunch.beamsplitter import BeamsplitterParams, output_moments

        cfg = write_config(
            tmp_path,
            {
                "state_a": {"kind": "vacuum_two_photon", "c2": 0.1},
                "state_b": {"kind": "coherent", "alpha": 0.5},
                "beamsplitter": {"R": 0.5, "phi": 0.3},
            },
        )
        assert cli.main(["g2", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        g2, n_mean = output_moments(
            states.vacuum_two_photon(0.1, 3), states.coherent(0.5, 18), BeamsplitterParams(0.5, 0.3)
        )
        assert g2 == pytest.approx(1.10780147178268, abs=1e-10)
        assert report["g2"] == pytest.approx(g2, abs=1e-10)
        assert report["n_mean"] == pytest.approx(n_mean, abs=1e-10)
        assert len(report["p_n"]) == 13
        assert sum(report["p_n"]) == pytest.approx(1.0, abs=1e-10)

    def test_pretty_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "coherent", "alpha": 0.4}})
        assert cli.main(["g2", "--config", str(cfg), "--pretty"]) == 0
        out = capsys.readouterr().out
        assert "\n" in out.strip()
        assert json.loads(out)["g2"] == pytest.approx(1.0, abs=1e-8)

    def test_vacuum_exits_5(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 0}})
        assert cli.main(["g2", "--config", str(cfg)]) == 5
        assert capsys.readouterr().err.startswith("undefined g2: ")

    def test_missing_config_exits_3(self):
        assert cli.main(["g2"]) == 3

    def test_malformed_json_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["g2", "--config", str(bad)]) == 3

    def test_unknown_kind_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {"state": {"kind": "thermal", "n": 1}})
        assert cli.main(["g2", "--config", str(cfg)]) == 3

    def test_unknown_top_level_keys_exit_3(self, tmp_path):
        cfg = write_config(
            tmp_path, {"state": {"kind": "coherent", "alpha": 0.4}, "mode": "fast"}
        )
        assert cli.main(["g2", "--config", str(cfg)]) == 3

    def test_corrupting_truncation_override_exits_3(self, tmp_path, capsys):
        # forcing a 2-level space under a squeeze that needs ~24 levels must
        # surface the truncation error, not silently return garbage
        cfg = write_config(tmp_path, {"state": {"kind": "squeezed_vacuum", "xi": 0.2}})
        assert cli.main(["g2", "--config", str(cfg), "--dim", "8"]) == 3
        err = capsys.readouterr().err
        assert "retry with dim" in err


def pair_moments(tmp_path, capsys, state_a, state_b, R):
    """antibunch g2 on a pair: (printed g2, printed n_mean, g2 and n_mean of printed p_n)."""
    cfg = write_config(tmp_path, {"state_a": state_a, "state_b": state_b,
                                  "beamsplitter": {"R": R, "phi": 0.3}})
    assert cli.main(["g2", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    p_n = np.array(report["p_n"])
    n = np.arange(p_n.size)
    n_mean = float(n @ p_n)
    return report["g2"], report["n_mean"], float(n * (n - 1) @ p_n) / n_mean**2, n_mean


class TestOneBuildPerState:
    # The truncation rule's build is the state: each kind's amplitude recursion
    # runs once per state, never again in a factory after the rule has run.
    @pytest.mark.parametrize("spec, form", [
        ({"kind": "coherent", "alpha": 0.3}, "_coherent_terms"),
        ({"kind": "phase_modified", "alpha": 0.3, "dim": 12}, "_coherent_terms"),
        ({"kind": "kerr_coherent", "alpha": 0.3, "chi_t": 0.05}, "_coherent_terms"),
        ({"kind": "cat", "alpha_sch": 0.3, "parity": -1}, "_coherent_terms"),
        ({"kind": "squeezed_vacuum", "xi": 0.05}, "_squeezed_terms"),
        ({"kind": "squeezed_coherent", "alpha": 0.2, "xi": [0.0, 0.1], "dim": 24}, "_squeezed_terms"),
    ], ids=["coherent", "phase_modified", "kerr_coherent", "cat", "squeezed_vacuum",
            "squeezed_coherent"])
    def test_build_state_runs_the_recursion_once(self, monkeypatch, spec, form):
        calls = []
        recursion = getattr(states, form)
        monkeypatch.setattr(states, form, lambda *args: calls.append(args[-1]) or recursion(*args))
        psi = cli.build_state(spec)
        assert len(calls) == 1 and calls[0] >= psi.dim

    def test_squeezed_rows_run_the_recursion_once_per_cell(self, monkeypatch):
        calls = []
        recursion = states._squeezed_terms
        monkeypatch.setattr(states, "_squeezed_terms",
                            lambda *args: calls.append(args[-1]) or recursion(*args))
        rows = states._squeezed_rows(np.array([0.0, 0.2, 0.1j]), np.array([0.05, 0.1j, 0.05]), 24)
        assert rows.shape == (3, 24) and calls == [48, 48, 48]

    def test_pair_rebuilds_only_the_arm_whose_dim_was_picked(self, tmp_path, capsys, monkeypatch):
        built = []
        build = cli.build_state
        monkeypatch.setattr(cli, "build_state",
                            lambda spec, dim=None: built.append((spec["kind"], dim)) or build(spec, dim))
        cfg = write_config(tmp_path, {
            "state_a": {"kind": "kerr_coherent", "alpha": 0.3, "chi_t": 0.05},
            "state_b": {"kind": "coherent", "alpha": 0.3, "dim": 12},
            "beamsplitter": {"R": 0.3873, "phi": 0.9}})
        assert cli.main(["g2", "--config", str(cfg)]) == 0
        # the Kerr arm picks 9 levels; the pair is built on 9 + 12 - 1
        assert built == [("kerr_coherent", None), ("coherent", None), ("kerr_coherent", 20)]
        assert len(json.loads(capsys.readouterr().out)["p_n"]) == 20


class TestG2PairDistribution:
    """The p_n that antibunch g2 prints for a pair carries its printed g2 and n_mean."""

    @pytest.mark.parametrize("state_a", [
        {"kind": "coherent", "alpha": 0.4},
        {"kind": "kerr_coherent", "alpha": 0.3, "chi_t": 0.05},
        {"kind": "cat", "alpha_sch": 0.2, "parity": 1},
        {"kind": "fock", "n": 1},
    ], ids=["coherent", "kerr", "cat", "fock1"])
    def test_against_a_coherent_arm(self, tmp_path, capsys, state_a):
        g2, n_mean, g2_of_p, n_of_p = pair_moments(
            tmp_path, capsys, state_a, {"kind": "coherent", "alpha": 0.3}, 0.3873)
        assert g2_of_p == pytest.approx(g2, rel=1e-12, abs=0)
        assert n_of_p == pytest.approx(n_mean, rel=1e-12, abs=0)

    @pytest.mark.xfail(strict=True, reason=(
        "p_n comes from the truncated sector rotation, cut at the arms' 3 levels: "
        "|2>|2> at R = 0.5 prints p_n = [0, 0.083, 0.833, 0.083], but the output "
        "is [3/8, 0, 1/4, 0, 3/8] (g2 = 1.25, which is printed); an exact joint "
        "output state is ROADMAP item 7"))
    def test_two_photons_in_each_arm(self, tmp_path, capsys):
        two = {"kind": "fock", "n": 2}
        g2, n_mean, g2_of_p, n_of_p = pair_moments(tmp_path, capsys, two, two, 0.5)
        assert g2 == pytest.approx(1.25, rel=1e-12)
        assert g2_of_p == pytest.approx(g2, rel=1e-12, abs=0)


def g2_of_printed(out):
    """(printed g2, g2 of the printed p_n as beamsplitter._weighted_g2 forms it)."""
    report = json.loads(out)
    p_n = np.array(report["p_n"])
    n = np.arange(p_n.size, dtype=float)
    return report["g2"], float(p_n @ (n * (n - 1.0))) / float(p_n @ n) ** 2


class TestG2PairCutDistribution:
    """A pair whose truncation cuts p_n away from its printed g2 is refused with exit 3."""

    TWO = {"state_a": {"kind": "fock", "n": 2}, "state_b": {"kind": "fock", "n": 2},
           "beamsplitter": {"R": 0.5}}

    def test_two_photons_in_each_arm_are_refused_at_defaults(self, tmp_path, capsys):
        # each |2> defaults to 4 levels, which cut the output's N = 4 sector
        cfg = write_config(tmp_path, self.TWO)
        assert cli.main(["g2", "--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "retry with dim >= 7" in err

    def test_two_photons_in_each_arm_at_dim_5(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.TWO)
        assert cli.main(["g2", "--config", str(cfg), "--dim", "5"]) == 0
        out = capsys.readouterr().out
        np.testing.assert_allclose(json.loads(out)["p_n"], [3 / 8, 0.0, 1 / 4, 0.0, 3 / 8],
                                   rtol=0.0, atol=1e-12)
        g2, g2_of_p = g2_of_printed(out)
        assert g2 == pytest.approx(1.25, rel=1e-12)
        assert g2_of_p == pytest.approx(g2, rel=1e-12, abs=0)

    @pytest.mark.parametrize("state_a", [
        {"kind": "fock", "n": 2},
        {"kind": "fock", "n": 20},
        {"kind": "cat", "alpha_sch": 0.2, "parity": -1},
        {"kind": "vacuum_two_photon", "c2": 0.3},
        {"kind": "squeezed_vacuum", "xi": 0.2},
    ], ids=["fock2", "fock20", "odd-cat", "two_photon", "squeezed_vacuum"])
    def test_printed_p_n_carries_the_printed_g2_or_is_refused(self, tmp_path, capsys, state_a):
        cfg = write_config(tmp_path, {"state_a": state_a,
                                      "state_b": {"kind": "coherent", "alpha": 0.3},
                                      "beamsplitter": {"R": 0.3873, "phi": 0.3}})
        code = cli.main(["g2", "--config", str(cfg)])
        out, err = capsys.readouterr()
        if code == 3:  # retried at the truncation the refusal names
            dim = err.rsplit("retry with dim >= ", 1)[1].rstrip(")\n")
            assert cli.main(["g2", "--config", str(cfg), "--dim", dim]) == 0
            out = capsys.readouterr().out
        else:
            assert code == 0
        g2, g2_of_p = g2_of_printed(out)
        assert g2_of_p == pytest.approx(g2, rel=1e-12, abs=0)


    def test_broad_squeeze_against_a_coherent_arm_runs_at_defaults(self, tmp_path):
        # fock.truncated gives the r = 1.2 squeeze 167 levels and the coherent
        # arm 9, so the pair is built at 175, where p_n carries g2 (the
        # earlier rules refused it at 44 levels, then at 59).  Run in its own
        # process, which takes its 200 MB of sector eigenvectors with it.
        cfg = write_config(tmp_path, {"state_a": {"kind": "squeezed_vacuum", "xi": [0, 1.2]},
                                      "state_b": {"kind": "coherent", "alpha": 0.3},
                                      "beamsplitter": {"R": 0.3873, "phi": 0.3}})
        proc = subprocess.run([sys.executable, "-m", "antibunch.cli", "g2", "--config", str(cfg)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["p_n"]) == 175
        g2, g2_of_p = g2_of_printed(proc.stdout)
        assert g2_of_p == pytest.approx(g2, rel=1e-9, abs=0)


class TestTruncationRule:
    """fock.truncated's cases from the truncation baseline: each refused or exact."""

    def test_coherent_cut_at_four_levels_is_refused(self, tmp_path, capsys):
        # the old rule |alpha|^2 <= dim/4 let this through as g2 = 0.853
        cfg = write_config(tmp_path, {"state": {"kind": "coherent", "alpha": 1.0, "dim": 4}})
        assert cli.main(["g2", "--config", str(cfg)]) == 3
        assert "retry with dim >= 16" in capsys.readouterr().err

    def test_alpha_7_runs_at_its_default(self, tmp_path, capsys):
        # refused at the old default of 512 levels; fock.truncated takes 106
        cfg = write_config(tmp_path, {"state": {"kind": "coherent", "alpha": 7}})
        assert cli.main(["g2", "--config", str(cfg)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["p_n"]) == 106
        assert report["g2"] == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("r", [1.0, 1.2])
    def test_squeezed_vacuum_at_its_default_is_exact(self, tmp_path, capsys, r):
        cfg = write_config(tmp_path, {"state": {"kind": "squeezed_vacuum", "xi": r}})
        assert cli.main(["g2", "--config", str(cfg)]) == 0
        g2 = json.loads(capsys.readouterr().out)["g2"]
        assert g2 == pytest.approx(3.0 + 1.0 / np.sinh(r) ** 2, rel=0, abs=1e-9)

    def test_squeezed_vacuum_beyond_max_dim_is_refused(self, tmp_path, capsys):
        # r = 1.5 needs 305 levels, above cli.MAX_DIM
        cfg = write_config(tmp_path, {"state": {"kind": "squeezed_vacuum", "xi": 1.5}})
        assert cli.main(["g2", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith("config error: truncation of the ")


class TestRefusedValues:
    # Each value is one the library refuses; the CLI reports it as a
    # one-line config error (exit 3), never as a traceback or a silent default.
    @pytest.mark.parametrize(
        "state, extra",
        [({"kind": "coherent", "alpha": 0.3, "dim": -3}, []),
         ({"kind": "coherent", "alpha": 0.3, "dim": 2.5}, []),
         ({"kind": "coherent", "alpha": 0.3, "dim": 0}, []),
         ({"kind": "coherent", "alpha": 0.3, "dim": cli.MAX_DIM + 1}, []),
         ({"kind": "coherent", "alpha": 0.3}, ["--dim", "0"]),
         ({"kind": "fock", "n": -1}, []),
         ({"kind": "fock", "n": 1.7}, []),
         ({"kind": "cat", "alpha_sch": 0.2, "parity": 2}, []),
         ({"kind": "cat", "alpha_sch": 0.2, "parity": 1.9}, []),
         ({"kind": "vacuum_two_photon", "c2": 1.5}, []),
         ({"kind": "kerr_coherent", "alpha": 0.3, "chi_t": float("nan")}, []),
         ({"kind": "coherent", "alpha": float("inf")}, []),
         ({"kind": "coherent", "alpha": -float("inf")}, []),
         ({"kind": "coherent", "alpha": 3, "dim": 8}, []),
         ({"kind": "coherent", "alpha": 1.5}, ["--dim", "8"]),
         ({"kind": "phase_modified", "alpha": [0.0, 3.0], "dim": 8}, []),
         ({"kind": "kerr_coherent", "alpha": 3, "chi_t": 0.05, "dim": 8}, []),
         ({"kind": "cat", "alpha_sch": 3, "parity": 1, "dim": 8}, []),
         ({"kind": "coherent", "alpha": 1e200}, []),
         ({"kind": "coherent", "alpha": 1e200, "dim": 8}, []),
         ({"kind": "squeezed_coherent", "alpha": 1e200, "xi": 0.1}, []),
         ({"kind": "squeezed_vacuum", "xi": 1e308}, []),
         ({"kind": "squeezed_coherent", "alpha": 0.1, "xi": [0.0, 1e308]}, []),
         ({"kind": "kerr_coherent", "alpha": 0.3, "chi_t": 10**400}, []),
         ({"kind": "squeezed_coherent", "alpha": 1, "xi": 1e300}, []),
         ({"kind": "coherent", "alpha": 1e100}, []),
         ({"kind": "coherent", "alpha": 0.3, "dim": 10**400}, []),
         ({"kind": "fock", "n": -10**300}, []),
         ({"kind": "cat", "alpha_sch": 0.2, "parity": 10**300}, [])],
        ids=["dim-negative", "dim-fractional", "dim-zero", "dim-above-limit", "dim-flag-zero", "fock-n-negative",
             "fock-n-fractional", "cat-parity-2", "cat-parity-fractional", "c2-above-1",
             "chi_t-nan", "alpha-infinity", "alpha-minus-infinity", "coherent-truncated",
             "dim-flag-truncates", "phase_modified-truncated", "kerr_coherent-truncated",
             "cat-truncated", "coherent-huge", "coherent-huge-dim", "squeezed_coherent-huge",
             "squeezed_vacuum-xi-huge", "squeezed_coherent-xi-huge", "chi_t-integer-beyond-float",
             "squeezed_coherent-picks-302-digit-dim", "coherent-picks-201-digit-dim",
             "dim-401-digits", "fock-n-301-digits", "cat-parity-301-digits"],
    )
    def test_g2_state_value(self, tmp_path, capsys, state, extra):
        cfg = write_config(tmp_path, {"state": state})
        assert cli.main(["g2", "--config", str(cfg), *extra]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert len(err) < 200  # an oversized truncation is shown in e-notation

    @pytest.mark.parametrize(
        "config",
        [{"state_a": {"kind": "coherent", "alpha": 12},
          "state_b": {"kind": "coherent", "alpha": 12}, "beamsplitter": {"R": 0.5}},
         {"state": {"kind": "fock", "n": 500}},
         {"state": {"kind": "squeezed_vacuum", "xi": 10}}],
        ids=["coherent-pair-alpha-12", "fock-n-500", "squeezed_vacuum-xi-10"],
    )
    def test_default_truncation_above_limit(self, tmp_path, capsys, monkeypatch, config):
        # A spec with no dim picks its own truncation (234, 501 and 4096
        # here); it is bounded like a given one, before any state is built.
        def unbuilt(*args):
            raise AssertionError("a state was built")

        for module, name in ((states, "coherent"), (states, "squeezed_vacuum"), (fock, "basis")):
            monkeypatch.setattr(module, name, unbuilt)
        cfg = write_config(tmp_path, config)
        assert cli.main(["g2", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: truncation of the ") and err.count("\n") == 1

    def test_default_truncation_at_limit_runs(self, tmp_path, capsys):
        # alpha = 10.85 picks 200 levels of fock.truncated, the limit itself.
        cfg = write_config(tmp_path, {"state": {"kind": "coherent", "alpha": 10.85}})
        assert cli.main(["g2", "--config", str(cfg)]) == 0
        assert len(json.loads(capsys.readouterr().out)["p_n"]) == cli.MAX_DIM

    def test_huge_cat_amplitude_in_a_pair(self, tmp_path, capsys):
        # |alpha|^2 overflows a float: refused, not an OverflowError
        cfg = write_config(tmp_path, {
            "state_a": {"kind": "cat", "alpha_sch": 1e200, "parity": 1},
            "state_b": {"kind": "coherent", "alpha": 0.3},
            "beamsplitter": {"R": 0.5},
        })
        assert cli.main(["g2", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: amplitude (1e+200") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "name, config, extra",
        [("fig2", None, ["--dim", "0"]), ("fig2", {"grid": 0}, []),
         ("fig2", {"grid": 2.5}, []), ("fig3b", {"alpha_lo": "no"}, []),
         ("fig2", {"alpha": float("nan")}, []), ("fig3b", {"alpha_hi": float("inf")}, []),
         ("fig2", {"alpha": 10**400}, []), ("fig6", {"dim_a": 100_000_000}, []),
         ("fig6", {"dim_b": 10**30}, []), ("fig6", {"dim_a": cli.MAX_DIM + 1}, []),
         ("fig2", None, ["--dim", str(cli.MAX_DIM + 1)]), ("fig7", {"dims_coupled": [15, 14]}, [])],
        ids=["dim-flag-zero", "grid-zero", "grid-fractional", "float-key-string",
             "alpha-nan", "alpha_hi-infinity", "alpha-integer-beyond-float", "dim_a-huge",
             "dim_b-huge", "dim_a-above-limit", "dim-flag-above-limit", "dims_coupled-joint"],
    )
    def test_figure_value(self, tmp_path, capsys, name, config, extra):
        argv = ["figure", name, "--out", str(tmp_path), *extra]
        if config is not None:
            argv += ["--config", str(write_config(tmp_path, config))]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not list(tmp_path.glob(f"{name}.*"))

    @pytest.mark.parametrize("alpha_hi", [10.9, 1e30], ids=["alpha_hi-10.9", "alpha_hi-1e30"])
    def test_fig6_coherent_truncation_above_limit(self, tmp_path, capsys, monkeypatch, alpha_hi):
        # With dim_b None fig6's coherent arm picks fock.truncated's dim per cell (up
        # to 202 here, and 4096, the search's depth, where the amplitudes
        # overflow); the largest is bounded before any state is built.
        def unbuilt(*args):
            raise AssertionError("a state was built")

        monkeypatch.setattr(states, "coherent", unbuilt)
        cfg = write_config(tmp_path, {"alpha_hi": alpha_hi})
        assert cli.main(["figure", "fig6", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: truncation of fig6's coherent arm ")
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("fig6.*"))

    def test_fig6_coherent_truncation_at_limit_runs(self, tmp_path):
        # alpha_hi = 10.85 picks 200 levels of fock.truncated, the limit itself.
        cfg = write_config(tmp_path, {"r_count": 2, "alpha_count": 3, "alpha_hi": 10.85})
        assert cli.main(["figure", "fig6", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig6.csv").exists()

    def test_figure_too_large_to_allocate(self, tmp_path, capsys):
        # fig2's 10^7 x 10^7 grid asks numpy for 728 TiB at once, beyond the
        # 128 TiB user address space of x86-64: a MemoryError, not a traceback.
        cfg = write_config(tmp_path, {"grid": 10_000_000})
        assert cli.main(["figure", "fig2", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("fig2.*"))

    @pytest.mark.parametrize("dim", ["0", "1"])
    def test_selftest_dim(self, capsys, dim):
        assert cli.main(["selftest", "--dim", dim]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
        assert "PASS" not in captured.out

    def test_pair_beamsplitter_keys(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "state_a": {"kind": "coherent", "alpha": 0.3},
            "state_b": {"kind": "coherent", "alpha": 0.3},
            "beamsplitter": {"phi": 0.5, "T": 0.5},
        })
        assert cli.main(["g2", "--config", str(cfg)]) == 3
        assert "unknown keys ['T'] in beamsplitter spec" in capsys.readouterr().err

    def test_non_finite_number_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "state_a": {"kind": "coherent", "alpha": 0.3},
            "state_b": {"kind": "coherent", "alpha": 0.3},
            "beamsplitter": {"R": 0.5, "phi": float("nan")},
        })
        assert cli.main(["g2", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == "config error: config holds the non-finite number NaN\n"

    @pytest.mark.parametrize(
        "config, field",
        [({"state": {"kind": "coherent", "alpha": True}}, "alpha"),
         ({"state": {"kind": "coherent", "alpha": [True, 0]}}, "alpha"),
         ({"state": {"kind": "kerr_coherent", "alpha": 0.3, "chi_t": "0.05"}}, "chi_t"),
         ({"state": {"kind": "vacuum_two_photon", "c2": False}}, "c2"),
         ({**COHERENT_ARMS, "beamsplitter": {"R": "0.5", "phi": True}}, "R")],
        ids=["alpha-boolean", "alpha-pair-boolean", "chi_t-string", "c2-boolean",
             "R-string-phi-boolean"],
    )
    def test_number_of_the_wrong_json_type(self, tmp_path, capsys, config, field):
        # A string or boolean is refused, never coerced to a float.
        cfg = write_config(tmp_path, config)
        assert cli.main(["g2", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field!r} must be ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "config",
        [{**COHERENT_ARMS, "beamsplitter": {"R": 1}},
         {"state": {"kind": "coherent", "alpha": [0.3, 0]}}],
        ids=["R-integer", "alpha-pair-integer"],
    )
    def test_json_integer_is_a_number(self, tmp_path, capsys, config):
        cfg = write_config(tmp_path, config)
        assert cli.main(["g2", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["g2"] == pytest.approx(1.0, abs=1e-8)

    def test_float_literal_beyond_the_float_range(self, tmp_path, capsys):
        # json reads 1e400 as inf, past the parse_constant hook that refuses NaN.
        cfg = tmp_path / "config.json"
        cfg.write_text('{"state": {"kind": "kerr_coherent", "alpha": 0.3, "chi_t": 1e400}}')
        assert cli.main(["g2", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == "config error: config holds the non-finite number 1e400\n"


class TestFigureCommand:
    def test_writes_csv_and_meta(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"count": 2, "inner_grid": 11})
        out = tmp_path / "out"
        rc = cli.main(["figure", "fig3b", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        res = figures.fig3b(count=2, inner_grid=11)
        with open(out / "fig3b.csv", newline="") as fh:
            columns, *rows = csv.reader(fh)
        assert tuple(columns) == ("alpha", "min_g2", "n_mean", "R_opt", "phi_opt", "defined")
        # 17 significant digits: every cell parses back to the float written
        assert [[float(v) for v in row] for row in rows] == [list(r) for r in res.rows]
        meta = json.loads((out / "fig3b.meta.json").read_text())
        assert meta["figure"] == "fig3b"
        assert meta["parameters"]["count"] == 2

    @pytest.mark.parametrize("name, config", [
        ("fig2", {"grid": 3}),
        ("fig3a", {"grid": 3, "r_hi": 0.4}),
        ("fig3b", {"count": 2, "inner_grid": 5}),
        ("fig4", {"count": 2, "inner_count": 5}),
        ("fig5", {"sch_count": 3, "alpha_count": 3}),
        ("fig6", {"r_count": 2, "alpha_count": 3, "alpha_hi": 1.0}),
    ], ids=["fig2", "fig3a", "fig3b", "fig4", "fig5", "fig6"])
    def test_meta_parameters_are_a_config(self, tmp_path, name, config):
        first, second = tmp_path / "first", tmp_path / "second"
        cfg = write_config(tmp_path, config)
        assert cli.main(["figure", name, "--config", str(cfg), "--out", str(first)]) == 0
        meta = json.loads((first / f"{name}.meta.json").read_text())
        assert meta["parameters"] == {**meta["parameters"], **config}
        cfg = write_config(tmp_path, meta["parameters"], name="parameters.json")
        assert cli.main(["figure", name, "--config", str(cfg), "--out", str(second)]) == 0
        csv_name = f"{name}.csv"
        assert (second / csv_name).read_text() == (first / csv_name).read_text()

    def test_unknown_figure_exits_3(self):
        assert cli.main(["figure", "fig99"]) == 3

    def test_unknown_override_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {"not_a_param": 1})
        assert cli.main(["figure", "fig2", "--config", str(cfg)]) == 3

    def test_blocked_output_path_exits_3(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        cfg = write_config(tmp_path, {"grid": 3})
        rc = cli.main(["figure", "fig2", "--config", str(cfg), "--out", str(blocker)])
        assert rc == 3


class TestSelftest:
    def test_passes_quickly(self, capsys):
        t0 = time.perf_counter()
        rc = cli.main(["selftest"])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert rc == 0
        assert elapsed < 30.0
        assert out.count("PASS") == 12
        assert "FAIL" not in out
        assert "OK" in out

    def test_corrupted_truncation_is_caught(self, capsys):
        # with every mode forced to 2 levels the squeezed-state moment checks
        # cannot hold; the run must report failures and exit nonzero
        rc = cli.main(["selftest", "--dim", "2"])
        out = capsys.readouterr().out
        assert rc == 4
        assert "FAIL" in out


class TestOptionsPerSubcommand:
    # Each subcommand registers only the options it reads, so one it would
    # ignore is refused by argparse (exit 2) instead of passing silently.
    @pytest.mark.parametrize(
        "argv, refused",
        [(["g2", "--out", "elsewhere"], "--out elsewhere"),
         (["figure", "fig2", "--pretty"], "--pretty"),
         (["selftest", "--config", "cfg.json"], "--config cfg.json")],
        ids=["g2-out", "figure-pretty", "selftest-config"],
    )
    def test_unread_option_is_refused(self, argv, refused, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {refused}" in capsys.readouterr().err


class TestParserReuse:
    def test_one_parser_serves_every_call(self, tmp_path, capsys, monkeypatch):
        # A usage error and a config error in between leave the next
        # request's output unchanged, and the parser is built once.
        built = []

        class Recording(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.prog)

        monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Recording))
        pair = write_config(tmp_path, {
            "state_a": {"kind": "kerr_coherent", "alpha": 0.3, "chi_t": 0.05},
            "state_b": {"kind": "coherent", "alpha": 0.3},
            "beamsplitter": {"R": 0.3873, "phi": 0.9},
        })
        bad = write_config(tmp_path, {"state": {"kind": "coherent", "alpha": True}}, "bad.json")
        cli.build_parser.cache_clear()
        try:
            assert cli.main(["g2", "--config", str(pair)]) == 0
            first = capsys.readouterr().out
            with pytest.raises(SystemExit) as exc:
                cli.main(["g2", "--config", str(pair), "--out", "elsewhere"])
            assert exc.value.code == 2
            assert cli.main(["g2", "--config", str(bad)]) == 3
            capsys.readouterr()
            assert cli.main(["g2", "--config", str(pair)]) == 0
            assert capsys.readouterr().out == first
        finally:
            cli.build_parser.cache_clear()  # drop the parser built from Recording
        assert built == ["antibunch", "antibunch g2", "antibunch figure", "antibunch selftest"]
        assert cli.build_parser() is cli.build_parser()


class TestEntrypoint:
    def test_module_execution(self, tmp_path):
        cfg = write_config(tmp_path, {"state": {"kind": "coherent", "alpha": 0.4}})
        proc = subprocess.run(
            [sys.executable, "-m", "antibunch.cli", "g2", "--config", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["g2"] == pytest.approx(1.0, abs=1e-8)


class TestReadme:
    def test_command_line_block_runs(self, tmp_path):
        # README's "Command line" block, verbatim, with `antibunch` run from
        # this source tree; set -e stops at the first command that fails.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        script = 'set -ex\nantibunch() { "$PYTHON" -m antibunch.cli "$@"; }\n' + block
        src = str(Path(antibunch.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHON": sys.executable,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(["bash", "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "data" / "fig3b.csv").exists()
