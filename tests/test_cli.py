"""End-to-end checks for the command line layer and its cache format."""

import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from zetamoments import cli, moments, oracles, zeta_numerics
from zetamoments.cli import (
    SCHEMA_VERSION,
    CacheError,
    cache_lock,
    load_cache,
    load_pzeta,
    main,
    save_pzeta,
)
from zetamoments.zeta_numerics import (
    PrimeZetaCoeffs,
    install_prime_zeta,
    prime_zeta_taylor,
)


@pytest.fixture(autouse=True)
def pristine_installs():
    yield
    for r in range(1, 40):
        install_prime_zeta(r, None)


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
    )
    def test_pzeta_roundtrip_restores_every_bit(self, r, digits, nums):
        with mp.workdps(digits + 5):
            coeffs = tuple(
                mp.mpf(f.numerator) / f.denominator for f in nums
            )
        pz = PrimeZetaCoeffs(r, coeffs, digits)
        with tempfile.TemporaryDirectory() as root:
            save_pzeta(root, pz)
            back = load_pzeta(os.path.join(root, "pzeta_r%d.json" % r))
        assert back.r == r and back.digits == digits
        assert len(back.coeffs) == len(coeffs)
        for a, b in zip(coeffs, back.coeffs):
            assert a == b

    def test_saved_files_are_deterministic(self, tmp_path):
        with mp.workdps(20):
            pz = PrimeZetaCoeffs(3, (mp.mpf(1) / 7, -mp.mpf(2) / 3), 15)
        with cache_lock(str(tmp_path)):
            save_pzeta(str(tmp_path), pz)
            first = (tmp_path / "pzeta_r3.json").read_bytes()
            save_pzeta(str(tmp_path), pz)
            second = (tmp_path / "pzeta_r3.json").read_bytes()
        assert first == second
        assert os.listdir(tmp_path) == ["pzeta_r3.json"]

    def test_failed_overwrite_keeps_the_old_file(self, tmp_path, monkeypatch):
        with mp.workdps(20):
            old = PrimeZetaCoeffs(3, (mp.mpf(1) / 7,), 15)
            new = PrimeZetaCoeffs(3, (mp.mpf(2) / 7,), 15)
        save_pzeta(str(tmp_path), old)
        data = (tmp_path / "pzeta_r3.json").read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_pzeta(str(tmp_path), new)
        assert os.listdir(tmp_path) == ["pzeta_r3.json"]
        assert (tmp_path / "pzeta_r3.json").read_bytes() == data

    def test_missing_file_is_none(self, tmp_path):
        assert load_pzeta(str(tmp_path / "pzeta_r1.json")) is None

    def test_newer_schema_is_rejected(self, tmp_path):
        write_doc(tmp_path / "pzeta_r1.json", "pzeta", {"r": 1, "n_max": 0},
                  {"digits": 15, "coeffs": [[1, 0]]},
                  schema_version=cli.PZETA_SCHEMA + 1)
        with pytest.raises(CacheError, match="newer"):
            load_pzeta(str(tmp_path / "pzeta_r1.json"))

    def test_other_kind_under_a_pzeta_name_is_rejected(self, tmp_path):
        write_doc(tmp_path / "pzeta_r1.json", "ftable", {"max_weight": 2},
                  {"entries": []}, schema_version=cli.PZETA_SCHEMA)
        with pytest.raises(CacheError, match="not a pzeta"):
            load_pzeta(str(tmp_path / "pzeta_r1.json"))

    def test_older_entry_with_tolerances_still_loads(self, tmp_path):
        # older versions also wrote "tolerances" and "tail_bounds" keys,
        # which nothing reads
        write_doc(tmp_path / "pzeta_r4.json", "pzeta", {"r": 4, "n_max": 0},
                  {"digits": 15, "coeffs": [[1, -1]], "tail_bounds": [[1, -60]]},
                  schema_version=cli.PZETA_SCHEMA,
                  tolerances={"requested_digits": 10, "stored_digits": 15})
        pz = load_pzeta(str(tmp_path / "pzeta_r4.json"))
        assert pz == PrimeZetaCoeffs(4, (mp.mpf("0.5"),), 15)

    def test_precomputed_entries_restore_every_bit(self, tmp_path):
        root = str(tmp_path / "c")
        cli.cmd_precompute(4, 10, root)
        zero = PrimeZetaCoeffs(17, (mp.mpf(0), -mp.mpf(3) / 7), 35)
        save_pzeta(root, zero)
        signs = set()
        for r in range(1, 18):
            install_prime_zeta(r, None)
            want = zero if r == 17 else prime_zeta_taylor(r, 4, 35)
            back = load_pzeta(os.path.join(root, "pzeta_r%d.json" % r))
            assert (back.r, back.digits) == (r, 35)
            assert [x._mpf_ for x in want.coeffs] == [x._mpf_ for x in back.coeffs], r
            signs.update(int(mp.sign(c)) for c in back.coeffs)
        assert signs == {-1, 0, 1}

    @pytest.mark.parametrize("pair", [
        "0.5", 0.5, True, [1, -1, 0], [1], [True, 0], [1, 0.0], ["1", "0"],
        None, "missing"], ids=repr)
    def test_malformed_pair_is_a_cache_error(self, tmp_path, capsys, pair):
        payload = {"digits": 35, "coeffs": [[1, -1], pair]}
        if pair == "missing":
            del payload["coeffs"]
        write_doc(tmp_path / "pzeta_r2.json", "pzeta", {"r": 2, "n_max": 1},
                  payload, schema_version=cli.PZETA_SCHEMA)
        with pytest.raises(CacheError, match="malformed.*pzeta_r2"):
            load_pzeta(str(tmp_path / "pzeta_r2.json"))
        assert main(["poly", "--k", "2", "--digits", "10",
                     "--cache-dir", str(tmp_path)]) == 3
        assert "pzeta_r2" in capsys.readouterr().err

    def test_schema_1_entries_print_the_same_polynomial(self, tmp_path,
                                                        capsys, monkeypatch):
        # the decimal entries older versions wrote are skipped, not loaded:
        # poly prints what it prints with no cache, though these values are
        # wrong, and precompute rebuilds every one
        old = tmp_path / "old"
        old.mkdir()
        for r in range(1, 17):
            write_doc(old / ("pzeta_r%d.json" % r), "pzeta", {"r": r, "n_max": 4},
                      {"digits": 35, "coeffs": ["0.9"] * 5,
                       "tail_bounds": ["1e-40"] * 5}, schema_version=1)
            assert load_pzeta(str(old / ("pzeta_r%d.json" % r))) is None
        outs = []
        for root in (old, tmp_path / "none"):
            monkeypatch.setattr(moments, "_w_cache", {})
            assert main(["poly", "--k", "2", "--digits", "10", "--format",
                         "json", "--cache-dir", str(root)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert main(["precompute", "--nmax", "4", "--digits", "10",
                     "--cache-dir", str(old)]) == 0
        assert "pzeta: built 16, reused 0" in capsys.readouterr().out
        assert all(load_pzeta(str(path)).digits == 35 for path in old.iterdir())

    def test_garbage_file_is_reported_with_path(self, tmp_path):
        path = tmp_path / "pzeta_r1.json"
        path.write_text("{not json")
        with pytest.raises(CacheError, match="pzeta_r1"):
            load_pzeta(str(path))

    @pytest.mark.parametrize("field, value", [
        ("r", True), ("r", 2), ("r", 0), ("r", "3"), ("r", 3.0),
        ("digits", "40"), ("digits", True), ("digits", 0), ("digits", 40.0),
        ("schema_version", True), ("schema_version", "2"),
        ("schema_version", 2.0), ("schema_version", None)])
    @pytest.mark.parametrize("command", [
        ["poly", "--k", "2", "--digits", "10"],
        ["precompute", "--nmax", "4", "--digits", "10"]], ids=["poly", "precompute"])
    def test_bad_r_or_digits_is_exit_3(self, tmp_path, capsys, field, value,
                                       command):
        # r and digits must be ints >= 1, r the one in the file name: an
        # entry with r = true would install the r = 3 family as r = 1; the
        # schema must be an int too, or true would read as an older one
        save_pzeta(str(tmp_path), prime_zeta_taylor(3, 4, 35))
        path = tmp_path / "pzeta_r3.json"
        doc = json.loads(path.read_text())
        {"r": doc["params"], "digits": doc["payload"]}.get(field, doc)[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CacheError, match="pzeta_r3"):
            load_pzeta(str(path))
        assert main(command + ["--cache-dir", str(tmp_path)]) == 3
        assert "pzeta_r3" in capsys.readouterr().err


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

    def test_cached_poly_computes_no_family(self, tmp_path, capsys, monkeypatch):
        # the mechanism of the cached CLI workload: every family poly reads
        # is served from the cache precompute wrote
        root = str(tmp_path / "c")
        assert main(["precompute", "--nmax", "4", "--digits", "10",
                     "--cache-dir", root]) == 0
        for r in range(1, 40):
            install_prime_zeta(r, None)
        monkeypatch.setattr(moments, "_w_cache", {})
        zeta_numerics._compute_prime_zeta.cache_clear()
        assert main(["poly", "--k", "2", "--digits", "10",
                     "--cache-dir", root]) == 0
        capsys.readouterr()
        assert zeta_numerics._compute_prime_zeta.cache_info().misses == 0

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
            assert load_pzeta(str(root / name)).digits == 30 + cli.PZETA_MARGIN

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

    @pytest.mark.parametrize("n_max,digits,name", [
        (True, 10, "nmax"), (2.0, 10, "nmax"), (2, True, "digits"),
        (2, 10.0, "digits"),
    ])
    def test_bools_and_floats_are_refused_before_any_work(self, tmp_path, n_max,
                                                          digits, name):
        root = tmp_path / "c"
        with pytest.raises(ValueError, match="^%s must be" % name):
            cli.cmd_precompute(n_max, digits, str(root))
        assert not root.exists()

    def test_weights_past_max_weight_are_refused(self, tmp_path, capsys,
                                                 monkeypatch):
        # P_5 and a cache no request reads are refused with exit 2, before
        # any plan past weight 16 or any cache directory
        plan = moments._plan

        def guarded(wmax):
            assert wmax <= zeta_numerics.MAX_WEIGHT, "_plan(%d) started" % wmax
            return plan(wmax)

        monkeypatch.setattr(moments, "_plan", guarded)
        assert main(["poly", "--k", "5", "--digits", "5"]) == 2
        assert main(["precompute", "--nmax", "17", "--digits", "10",
                     "--cache-dir", str(tmp_path / "c")]) == 2
        assert capsys.readouterr().err.count("MAX_WEIGHT = 16") == 2
        assert not (tmp_path / "c").exists()

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
        assert set(doc["truncation"]) == {"r_max_used", "prime_cutoff", "tol"}
        assert doc["truncation"]["prime_cutoff"] > 0
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

    def test_selftest_runs_through_the_lazy_import(self, capsys):
        assert main(["selftest"]) == 0
        assert "8/8 checks passed (fast level)" in capsys.readouterr().out

    @pytest.mark.slow
    def test_selftest_full_passes(self, capsys):
        assert main(["selftest", "--level", "full"]) == 0
        assert "18/18 checks passed (full level)" in capsys.readouterr().out

    def test_requests_leave_the_oracles_unimported(self, tmp_path):
        # a fresh process: poly loads neither the oracles nor their golden
        # tables, but frobenius_schur, which perfbench's spans look up; the
        # request modules no longer carry V's f-table oracle
        code = ("import sys\n"
                "import zetamoments.cli as cli\n"
                "cli.main(['poly', '--k', '1', '--digits', '8', '--format',"
                " 'json'])\n"
                "print(*(m in sys.modules for m in ('zetamoments.oracles',"
                " 'zetamoments._golden', 'zetamoments.frobenius_schur')))\n"
                "print(any(hasattr(sys.modules['zetamoments.' + m], n)"
                " for m in ('moments', 'symseries') for n in ('V_poly',"
                " 'f_table', 'monomial_eval', 'multinomial')))")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {k: v for k, v in os.environ.items() if k != cli.CACHE_ENV}
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             cwd=tmp_path, capture_output=True, text=True).stdout
        assert json.loads(out[:out.rindex("}") + 1])["k"] == 1
        assert out.split()[-4:] == ["False", "False", "True", "False"]

    def test_fast_level_has_constant_table_oracle(self):
        found = [(kind, fn) for label, kind, fn in oracles.FAST_CHECKS
                 if label.startswith("integer log table vs mpmath")]
        assert len(found) == 1 and found[0][0] == "oracle"
        found[0][1]()

    def test_fast_level_has_fixed_exp_log_check(self):
        found = [(kind, fn) for label, kind, fn in oracles.FAST_CHECKS
                 if label.startswith("fixed-point exp and log vs Fraction")]
        assert len(found) == 1 and found[0][0] == "exact"
        found[0][1]()

    def test_full_level_has_head_log_oracle(self):
        found = [(kind, fn) for label, kind, fn in oracles.FULL_CHECKS
                 if label.startswith("head-prime integer log")]
        assert len(found) == 1 and found[0][0] == "oracle"
        found[0][1]()

    def test_full_level_has_w_tail_oracle(self):
        found = [(kind, fn) for label, kind, fn in oracles.FULL_CHECKS
                 if label.startswith("W tail integer sum")]
        assert len(found) == 1 and found[0][0] == "oracle"
        found[0][1]()

    def test_full_level_has_head_power_sum_oracle(self):
        found = [(kind, fn) for label, kind, fn in oracles.FULL_CHECKS
                 if label.startswith("head-prime power sums")]
        assert len(found) == 1 and found[0][0] == "oracle"
        found[0][1]()

    def test_full_level_has_log_zeta_route_oracle(self):
        found = [(kind, fn) for label, kind, fn in oracles.FULL_CHECKS
                 if label.startswith("log zeta table, every row")]
        assert len(found) == 1 and found[0][0] == "oracle"
        found[0][1]()

    def test_full_level_has_assembly_route_oracle(self):
        found = [kind for label, kind, fn in oracles.FULL_CHECKS
                 if label.startswith("c_N power-sum route vs Schur d_table")]
        assert found == ["oracle"]

    def test_exit_codes_for_bad_input(self, capsys):
        assert main(["coeff", "--k", "2", "--N", "-1"]) == 1
        assert main(["poly", "--k", "-1"]) == 1
        assert main(["nonsense"]) == 1
        assert main([]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("digits", ["200", "330"])
    def test_non_convergence_is_exit_2(self, tmp_path, capsys, digits):
        # the prime cutoff passes the head-prime cap; at 330 digits the
        # default tol underflows to 0.0 and takes the same refusal
        rc = main(["coeff", "--k", "2", "--N", "0", "--digits", digits,
                   "--cache-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("non-convergence: ") and "\nparameters: " in err

    def test_tol_far_below_digits_is_served(self, capsys):
        # the tail's target follows tol, and so do the families' digits
        rc = main(["coeff", "--k", "2", "--N", "1", "--digits", "5",
                   "--tol", "1e-30"])
        out, err = capsys.readouterr()
        assert rc == 0 and err == "" and out.startswith("c_1(2) = 0.69887  ")

    def test_k_past_the_float_range_is_exit_2(self, capsys):
        # rho(600) is an int no float holds: refused, not a traceback
        rc = main(["coeff", "--k", "600", "--N", "0", "--digits", "10"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("non-convergence: prime cutoff inf")

    def test_poly_at_k0_is_the_constant_polynomial(self, capsys):
        # the same k rule as moment_polynomial and coeff --k 0 --N 0
        args = ["poly", "--k", "0", "--digits", "10", "--format"]
        assert main(args + ["text"]) == 0
        out = capsys.readouterr().out
        assert "degree 0" in out and "c_0  = 1.000000000  (error <= 0.0" in out
        assert main(args + ["json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 0 and doc["coefficients"] == [
            {"N": 0, "value": "1.000000000", "error": "0.0"}]
        assert main(args + ["csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "N,value", "0,1.000000000"]

    @pytest.mark.parametrize("extra", [
        ["--digits", "0"], ["--digits", "-3"], ["--tol", "nan"],
        ["--tol", "inf"], ["--tol", "0"], ["--tol", "-1"],
    ])
    def test_bad_request_is_exit_1(self, extra, capsys):
        for cmd in (["coeff", "--k", "1", "--N", "0"], ["poly", "--k", "1"]):
            assert main(cmd + extra) == 1
            assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("call,args,name", [
        ("cmd_poly", (True, 10), "k"),
        ("cmd_poly", (2.0, 10), "k"),
        ("cmd_poly", (1, True), "digits"),
        ("cmd_poly", (1, 10.0), "digits"),
        ("cmd_coeff", (True, 0, 10), "k"),
        ("cmd_coeff", (2.0, 0, 10), "k"),
        ("cmd_coeff", (1, True, 10), "N"),
        ("cmd_coeff", (1, 0.0, 10), "N"),
        ("cmd_coeff", (1, 0, True), "digits"),
    ])
    def test_bools_and_floats_are_refused_before_any_work(self, tmp_path, call,
                                                          args, name):
        # a broken cache file would turn any read into a CacheError
        (tmp_path / "pzeta_r2.json").write_text("{broken")
        with pytest.raises(ValueError, match="^%s must be" % name):
            getattr(cli, call)(*args, cache_dir=str(tmp_path))

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
