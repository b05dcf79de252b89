"""End-to-end checks for the command line layer and its cache format."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from zetamoments import cli, zeta_numerics
from zetamoments.cli import (
    SCHEMA_VERSION,
    CacheError,
    cache_lock,
    decode_pzeta,
    encode_pzeta,
    entry_filename,
    load_cache,
    load_entry,
    main,
    save_entry,
)
from zetamoments.zeta_numerics import PrimeZetaCoeffs, install_prime_zeta


@pytest.fixture(autouse=True)
def pristine_installs():
    yield
    for r in range(1, 40):
        install_prime_zeta(r, None)


def roundtrip(entry):
    doc = json.loads(json.dumps(
        {"schema_version": entry.schema_version, "kind": entry.kind,
         "params": entry.params, "payload": entry.payload},
        sort_keys=True))
    return cli.CacheEntry(doc["kind"], doc["params"], doc["payload"],
                          doc["schema_version"])


# retired cache kinds that older versions wrote: (file name, kind, params,
# payload)
RETIRED = [
    ("ftable_w2.json", "ftable", {"max_weight": 2},
     {"entries": [[[1], [1], "1/1"]]}),
    ("dimpoly_1_1.json", "dimpoly", {"kap": [1], "lam": [1]},
     {"B": ["2/1"], "depth": 2}),
    ("chartable_n2.json", "chartable", {"n": 2},
     {"entries": [[[1, 1], [2], -1], [[2], [2], 1]]}),
]


def write_doc(path, kind, params, payload, **extra):
    path.write_text(json.dumps(dict({
        "schema_version": SCHEMA_VERSION, "kind": kind,
        "params": params, "payload": payload,
    }, **extra)))


class TestCacheFormat:
    @settings(max_examples=25, deadline=None)
    @given(
        r=st.integers(1, 20),
        digits=st.sampled_from([15, 25, 40]),
        nums=st.lists(st.fractions(), min_size=1, max_size=6),
        tails=st.lists(st.fractions(), max_size=3),
    )
    def test_pzeta_roundtrip_restores_every_bit(self, r, digits, nums, tails):
        # mirror production: values rounded at working precision digits + 5
        with mp.workdps(digits + 5):
            coeffs = tuple(
                mp.mpf(f.numerator) / f.denominator for f in nums
            )
            tb = tuple(abs(mp.mpf(f.numerator) / max(1, f.denominator))
                       for f in tails)
        pz = PrimeZetaCoeffs(r, coeffs, digits, tb)
        back = decode_pzeta(roundtrip(encode_pzeta(pz)))
        assert back.r == r and back.digits == digits
        assert len(back.coeffs) == len(coeffs)
        for a, b in zip(coeffs, back.coeffs):
            assert a == b
        for a, b in zip(tb, back.tail_bounds):
            assert a == b

    def test_saved_files_are_deterministic(self, tmp_path):
        with mp.workdps(20):
            pz = PrimeZetaCoeffs(3, (mp.mpf(1) / 7, -mp.mpf(2) / 3), 15,
                                 (mp.mpf("1e-20"),))
        entry = encode_pzeta(pz)
        name = entry_filename(entry.kind, entry.params)
        with cache_lock(str(tmp_path)):
            save_entry(str(tmp_path), entry)
            first = (tmp_path / name).read_bytes()
            save_entry(str(tmp_path), entry)
            second = (tmp_path / name).read_bytes()
        assert first == second

    def test_newer_schema_is_rejected(self, tmp_path):
        write_doc(tmp_path / "pzeta_r1.json", "pzeta", {"r": 1, "n_max": 0},
                  {"digits": 15, "coeffs": ["1.0"], "tail_bounds": []},
                  schema_version=SCHEMA_VERSION + 1)
        with pytest.raises(CacheError, match="newer"):
            load_entry(str(tmp_path), "pzeta_r1.json")

    def test_older_entry_with_tolerances_still_loads(self, tmp_path):
        # older versions also wrote a "tolerances" key that nothing read
        write_doc(tmp_path / "pzeta_r4.json", "pzeta", {"r": 4, "n_max": 0},
                  {"digits": 15, "coeffs": ["0.5"], "tail_bounds": []},
                  tolerances={"requested_digits": 10, "stored_digits": 15})
        pz = decode_pzeta(load_entry(str(tmp_path), "pzeta_r4.json"))
        assert pz.r == 4 and pz.digits == 15 and pz.coeffs == (mp.mpf("0.5"),)

    def test_garbage_file_is_reported_with_path(self, tmp_path):
        path = tmp_path / "pzeta_r1.json"
        path.write_text("{not json")
        with pytest.raises(CacheError, match="pzeta_r1"):
            load_entry(str(tmp_path), "pzeta_r1.json")


class TestLock:
    def test_lock_is_created_and_released(self, tmp_path):
        lockfile = tmp_path / ".lock"
        with cache_lock(str(tmp_path)):
            assert lockfile.exists()
        assert not lockfile.exists()

    def test_second_writer_is_refused(self, tmp_path):
        with cache_lock(str(tmp_path)):
            with pytest.raises(CacheError, match="locked"):
                with cache_lock(str(tmp_path)):
                    pass

    def test_held_lock_turns_into_exit_3(self, tmp_path):
        (tmp_path / ".lock").write_text("pid 0\n")
        rc = main(["precompute", "--nmax", "1", "--digits", "10",
                   "--cache-dir", str(tmp_path)])
        assert rc == 3


class TestPrecompute:
    def test_build_then_reuse(self, tmp_path, capsys):
        root = str(tmp_path / "c")
        status = cli.cmd_precompute(3, 15, root)
        assert status["built"] == {"pzeta": 16}
        assert sorted(os.listdir(root)) == sorted(
            "pzeta_r%d.json" % r for r in range(1, 17)
        )
        again = cli.cmd_precompute(3, 15, root)
        assert again["built"] == {"pzeta": 0}
        assert again["reused"] == {"pzeta": 16}

    def test_loaded_tables_are_installed(self, tmp_path):
        root = str(tmp_path / "c")
        cli.cmd_precompute(3, 15, root)
        for r in range(1, 40):
            install_prime_zeta(r, None)
        counts = load_cache(root)
        assert counts == {"pzeta": 16}
        pz = zeta_numerics._installed_pzeta[2]
        assert pz.digits == 15 + cli.PZETA_MARGIN and len(pz.coeffs) == 4

    @pytest.mark.parametrize("name,kind,params,payload", RETIRED,
                             ids=[kind for _, kind, *_ in RETIRED])
    def test_retired_kinds_are_skipped(self, tmp_path, name, kind, params,
                                       payload):
        root = tmp_path / "c"
        cli.cmd_precompute(1, 12, str(root))
        write_doc(root / name, kind, params, payload)
        data = (root / name).read_bytes()
        assert load_cache(str(root)) == {"pzeta": 16}
        status = cli.cmd_precompute(1, 12, str(root))
        assert status["built"] == {"pzeta": 0}
        assert (root / name).read_bytes() == data

    def test_digit_upgrade_replaces_only_pzeta(self, tmp_path):
        root = tmp_path / "c"
        cli.cmd_precompute(2, 15, str(root))
        name, kind, params, payload = RETIRED[-1]
        write_doc(root / name, kind, params, payload)
        keep = (root / name).read_bytes()
        pz_before = {
            p.name: p.read_bytes()
            for p in root.iterdir() if p.name.startswith("pzeta")
        }
        status = cli.cmd_precompute(2, 30, str(root))
        assert status["built"] == {"pzeta": len(pz_before)}
        assert (root / name).read_bytes() == keep
        for name, data in pz_before.items():
            assert (root / name).read_bytes() != data
            entry = load_entry(str(root), name)
            assert entry.payload["digits"] == 30 + cli.PZETA_MARGIN

    def test_partial_cache_is_topped_up(self, tmp_path):
        root = str(tmp_path / "c")
        cli.cmd_precompute(1, 12, root)
        keep = open(os.path.join(root, "pzeta_r2.json"), "rb").read()
        os.unlink(os.path.join(root, "pzeta_r1.json"))
        status = cli.cmd_precompute(1, 12, root)
        assert status["built"] == {"pzeta": 1}
        assert status["reused"] == {"pzeta": 15}
        assert open(os.path.join(root, "pzeta_r2.json"), "rb").read() == keep

    def test_bad_arguments_are_input_errors(self, tmp_path):
        with pytest.raises(ValueError):
            cli.cmd_precompute(0, 10, str(tmp_path))
        with pytest.raises(ValueError):
            cli.cmd_precompute(2, 0, str(tmp_path))

    def test_tol_is_not_a_precompute_option(self, tmp_path, capsys):
        rc = main(["precompute", "--nmax", "1", "--digits", "10", "--tol",
                   "1e-5", "--cache-dir", str(tmp_path / "c")])
        assert rc == 1
        assert not (tmp_path / "c").exists()
        capsys.readouterr()


class TestCommands:
    def test_coeff_matches_twice_euler_gamma(self, tmp_path, capsys):
        rc = main(["coeff", "--k", "1", "--N", "1", "--digits", "20",
                   "--format", "json", "--cache-dir", str(tmp_path / "c")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        with mp.workdps(30):
            got = mp.mpf(doc["value"])
            assert abs(got - 2 * mp.euler) < mp.mpf("1e-19")
        assert doc["k"] == 1 and doc["N"] == 1
        assert "note" not in doc

    def test_degenerate_index_notes_and_succeeds(self, capsys):
        rc = main(["coeff", "--k", "2", "--N", "5", "--digits", "10",
                   "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert mp.mpf(doc["value"]) == 0
        assert "beyond degree" in doc["note"]

    def test_poly_json_schema(self, capsys):
        rc = main(["poly", "--k", "1", "--digits", "15", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {
            "schema_version", "k", "digits", "coefficients", "truncation",
            "cache",
        }
        assert doc["schema_version"] == SCHEMA_VERSION
        assert [c["N"] for c in doc["coefficients"]] == [0, 1]
        for c in doc["coefficients"]:
            assert set(c) == {"N", "value", "error"}
            assert isinstance(c["value"], str)
            assert isinstance(c["error"], str)
        assert set(doc["truncation"]) == {"r_max_used", "tol"}
        assert "versions" in doc["cache"]

    def test_json_output_is_byte_identical_across_runs(self, capsys):
        main(["poly", "--k", "1", "--digits", "15", "--format", "json"])
        first = capsys.readouterr().out
        main(["poly", "--k", "1", "--digits", "15", "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_csv_is_labeled_lossy(self, capsys):
        rc = main(["poly", "--k", "1", "--digits", "12", "--format", "csv"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("#") and "lossy" in out[0]
        assert out[1] == "N,value"
        assert len(out) == 4

    def test_selftest_fast_passes(self, capsys):
        assert main(["selftest", "--level", "fast"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_exit_codes_for_bad_input(self, capsys):
        assert main(["coeff", "--k", "2", "--N", "-1"]) == 1
        assert main(["poly", "--k", "0"]) == 1
        assert main(["nonsense"]) == 1
        assert main([]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("extra", [
        ["--digits", "0"], ["--digits", "-3"], ["--tol", "nan"],
        ["--tol", "inf"], ["--tol", "0"], ["--tol", "-1"],
    ])
    def test_bad_request_is_exit_1(self, extra, capsys):
        for cmd in (["coeff", "--k", "1", "--N", "0"], ["poly", "--k", "1"]):
            assert main(cmd + extra) == 1
            assert "input error" in capsys.readouterr().err

    def test_malformed_cache_is_exit_3(self, tmp_path, capsys):
        (tmp_path / "pzeta_r2.json").write_text("{broken")
        rc = main(["coeff", "--k", "1", "--N", "0", "--digits", "10",
                   "--cache-dir", str(tmp_path)])
        assert rc == 3
        capsys.readouterr()

    @pytest.mark.parametrize("name", [name for name, *_ in RETIRED],
                             ids=[kind for _, kind, *_ in RETIRED])
    def test_malformed_retired_kind_is_skipped(self, tmp_path, capsys, name):
        # a broken file of a kind older versions wrote is never read
        (tmp_path / name).write_text("{broken")
        rc = main(["coeff", "--k", "1", "--N", "0", "--digits", "10",
                   "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.strip()

    def test_cache_dir_env_var_and_flag(self, monkeypatch):
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        args = cli.build_parser().parse_args(["coeff", "--k", "1", "--N", "0"])
        assert args.cache_dir == os.path.join(".", "cache")
        monkeypatch.setenv(cli.CACHE_ENV, "/tmp/fromenv")
        args = cli.build_parser().parse_args(["coeff", "--k", "1", "--N", "0"])
        assert args.cache_dir == "/tmp/fromenv"
        args = cli.build_parser().parse_args(
            ["coeff", "--k", "1", "--N", "0", "--cache-dir", "/tmp/fromflag"]
        )
        assert args.cache_dir == "/tmp/fromflag"
