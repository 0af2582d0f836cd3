"""What a command loads, how long `sieve Ff` takes, and how the CLI ends on a
closed pipe, in fresh processes."""

import importlib
import json
import pkgutil
import subprocess
import sys

import pytest

import alpha4
import peaks


def test_cli_import_loads_neither_numpy_nor_the_process_pool():
    code = "import sys, alpha4.cli; print('numpy' in sys.modules, 'concurrent.futures' in sys.modules)"
    (out,) = peaks.in_children(code, [])
    assert out.split() == ["False", "False"]


# the alpha4 modules and mpmath that a process holds; `verify-all --list` needs
# verify's registry and arith, which holds the budget dispatch sets for every command
_LOADED = "print(sorted(m for m in sys.modules if m == 'mpmath' or m.startswith('alpha4.')))"


@pytest.mark.parametrize("code, loaded", [
    ("import sys, alpha4.cli", ["alpha4.cli", "alpha4.errors"]),
    ("import sys, alpha4.verify", ["alpha4.errors", "alpha4.verify"]),
    ("import contextlib, io, sys\nfrom alpha4 import cli\nwith contextlib.redirect_stdout(io.StringIO()):\n"
     "    assert cli.dispatch(['verify-all', '--list']) == 0",
     ["alpha4.arith", "alpha4.cli", "alpha4.errors", "alpha4.verify"]),
], ids=["cli", "verify", "verify-all --list"])
def test_the_front_ends_load_no_layer_they_do_not_run(code, loaded):
    (out,) = peaks.in_children(code + "\n" + _LOADED, [])
    assert out.strip() == repr(loaded)


def test_arith_imports_neither_mpmath_nor_bigreal():
    code = "import sys, alpha4.arith; print('mpmath' in sys.modules, 'alpha4.bigreal' in sys.modules)"
    (out,) = peaks.in_children(code, [])
    assert out.split() == ["False", "False"]


# every command here runs without numpy; a single value (lemma61's m,
# alpha's prefix, prop1's p+1) is factored in pure Python, and psi's exact
# count walks the smooth numbers (it sieves only when y > sqrt(x))
NUMPY_FREE = [
    ["alpha", "--bits", "8192"],
    ["prop1", "--p", "1000003"],
    ["expsum", "lemma61", "--h", "1", "--m", "12345", "--r", "101", "--hi", "50"],
    ["expsum", "weyl", "--kind", "lemma61", "--h", "1", "--m", "12345", "--r", "101", "--hi", "64",
     "--K", "4", "--L", "4"],
    ["expsum", "basic", "--A", "1/3", "--B", "2/7", "--hi", "500"],
    ["expsum", "basic", "--A", "1/3", "--B", "2/7", "--hi", "200", "--engine", "mpf"],
    ["expsum", "weyl", "--A", "1/3", "--B", "2/7", "--hi", "128", "--K", "4", "--L", "4"],
    ["expsum", "scan", "--count", "2", "--family", "lemma61"],
    ["expsum", "window", "--h-max", "1000"],
    ["psi", "--x", "1000", "--y", "10", "--no-exact"],
    ["psi", "--x", "100000", "--y", "63"],
    ["verify-all", "--only", "smooth_counts"],
    ["sieve", "vector", "--tuple", "1", "2", "3", "1", "2", "3"],
    ["rho", "--u", "3.5"],
    ["rho", "--table", "--step", "0.5"],
    ["rho", "--ten-thirds"],
    ["verify-all", "--only", "rho_two_routes"],
    ["verify-all", "--only", "limit_functions"],
    ["sieve", "Ff", "--s", "5.5"],
    ["verify-all", "--only", "amplitude_grid"],
    ["verify-all", "--only", "alpha_digits"],
]


@pytest.mark.parametrize("argv", NUMPY_FREE, ids=" ".join)
def test_numpy_free_commands_never_load_numpy(argv):
    code = (
        "import contextlib, io, sys\n"
        "from alpha4 import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    rc = cli.dispatch(sys.argv[1:])\n"
        "print(rc, 'numpy' in sys.modules)\n"
    )
    (out,) = peaks.in_children(code, argv)
    assert out.split() == ["0", "False"]


# every command here computes without mpmath: the special walk, prop1's
# statistics, the exact and Weyl sums and the sieve sandwiches are integer,
# rational and float work
MPMATH_FREE = [
    ["special", "sigmas", "--x", "100000", "--delta", "0.05"],
    ["special", "enumerate", "--x", "100000"],
    ["verify-all", "--only", "special_set"],
    ["verify-all", "--only", "tail_identity"],
    ["verify-all", "--only", "sieve_sandwich"],
    ["verify-all", "--only", "fundamental_lemma"],
    ["verify-all", "--only", "vector_sandwich"],
    ["expsum", "weyl", "--A", "1/3", "--B", "2/7", "--hi", "128", "--K", "4", "--L", "4"],
    ["expsum", "weyl", "--kind", "lemma61", "--h", "1", "--m", "12345", "--r", "101", "--hi", "64",
     "--K", "4", "--L", "4"],
    ["expsum", "basic", "--engine", "exact", "--A", "1/3", "--B", "2/7", "--hi", "500"],
    ["expsum", "basic", "--A", "1/3", "--B", "2/7", "--hi", "500"],
    ["special", "hist", "--x", "100000"],
    ["prop1", "--p", "13", "--r", "3", "--expansion", "--residuals"],
    ["sieve", "weights", "--d", "100", "--z", "10", "--n-limit", "2000"],
    ["sieve", "flemma", "--z", "10", "--r", "2", "--parity", "even", "--n-limit", "2000"],
    ["sieve", "vector", "--trials", "1000"],
    ["sieve", "mertens", "--x", "1000000"],
    ["expsum", "lemma61", "--h", "2", "--m", "97", "--r", "13", "--hi", "60", "--check-rewrite"],
    ["expsum", "scan", "--count", "2"],
    ["verify-all", "--only", "amplitude_grid"],
]


@pytest.mark.parametrize("argv", MPMATH_FREE, ids=" ".join)
def test_mpmath_free_commands_never_load_mpmath(argv):
    code = (
        "import contextlib, io, sys\n"
        "from alpha4 import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    rc = cli.dispatch(sys.argv[1:])\n"
        "print(rc, 'mpmath' in sys.modules, 'alpha4.bigreal' in sys.modules)\n"
    )
    (out,) = peaks.in_children(code, argv)
    assert out.split() == ["0", "False", "False"]


@pytest.mark.parametrize("s, name, digits", [
    ("4.5", "f", "0.9936299805871446"), ("5.5", "F", "1.000443141619517"), ("6", "F", "1.000105656810419"),
])
def test_sieve_ff_answers_past_four_as_a_whole_process(s, name, digits):
    done = subprocess.run([sys.executable, "-m", "alpha4.cli", "sieve", "Ff", "--s", s],
                          env=peaks.child_env(), capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["result"][name].startswith(digits)


def test_every_public_name_resolves():
    for name in alpha4.__all__:
        assert getattr(alpha4, name) is not None, name
    for name in ("no_such_name", "Factorization"):
        with pytest.raises(AttributeError):
            getattr(alpha4, name)


def test_exports_name_what_their_modules_define():
    # every name a submodule lists resolves, and the package exports only
    # what its home module lists; errors, which has no __all__, is exempt
    stale = []
    for info in pkgutil.iter_modules(alpha4.__path__):
        module = importlib.import_module(f"alpha4.{info.name}")
        stale += [f"{info.name}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    for name, home in alpha4._HOME.items():
        module = importlib.import_module(f"alpha4.{home}")
        if home != "errors" and name not in module.__all__:
            stale.append(f"alpha4._HOME[{name!r}] is not in {home}.__all__")
    assert not stale, stale


def test_closed_stdout_ends_quietly_with_status_141():
    # about 1.2 MB of rows, far more than a pipe buffers, so the writer
    # meets the closed pipe mid-stream
    proc = subprocess.Popen(
        [sys.executable, "-m", "alpha4.cli", "special", "enumerate", "--x", "1000000", "--format", "jsonl"],
        env=peaks.child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err
