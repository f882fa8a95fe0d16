"""End-to-end command-line checks: output text, JSON mode, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings

import pytest

import formzeros.bounds
import formzeros.fields
from formzeros import cli
from formzeros.cli import main
from formzeros.poly import Poly

SRC = os.path.dirname(os.path.dirname(os.path.abspath(formzeros.__file__)))


@pytest.fixture()
def torus_file(tmp_path, capsys):
    path = tmp_path / "torus.json"
    code = main(["example", "mapping-torus", "--matrix", "[[0,-1],[1,1]]",
                 "-o", str(path)])
    assert code == 0
    capsys.readouterr()  # drop the generation chatter
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_betti_table(capsys, torus_file):
    code, out, _ = run(capsys, ["betti", "-c", torus_file,
                                "--at", "root:t^2 - t + 1"])
    assert code == 0
    assert "b0=1 b1=1" in out
    assert "euler = 0" in out


def test_betti_json(capsys, torus_file):
    code, out, _ = run(capsys, ["--format", "json", "betti", "-c", torus_file,
                                "--at", "transcendental"])
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == [0, 0]


def test_betti_target_syntax_error(capsys, torus_file):
    code, _, err = run(capsys, ["betti", "-c", torus_file, "--at", "nope:1"])
    assert code == 2
    assert "unrecognised target" in err


def test_missing_file_is_parse_error(capsys):
    code, _, err = run(capsys, ["betti", "-c", "/does/not/exist.json",
                                "--at", "zero"])
    assert code == 2


def test_bad_flag_exits_2(capsys):
    assert main(["betti", "--definitely-not-a-flag"]) == 2


def test_composite_prime_refused(capsys, torus_file):
    code, _, err = run(capsys, ["betti", "-c", torus_file, "--at", "zero:10"])
    assert code == 3
    assert "not prime" in err


def test_trefoil_example_lines(capsys):
    code, out, _ = run(capsys, ["example", "trefoil", "--n", "4"])
    assert code == 0
    assert "dim H1(X;F) = 8" in out
    assert "h1_M_generic = 0" in out
    assert "h1_M_twisted = 8" in out


def test_trefoil_transcendental_note(capsys):
    code, out, _ = run(capsys, ["example", "trefoil", "--n", "2",
                                "--a", "transcendental"])
    assert code == 0
    assert "all Novikov numbers vanish" in out


def test_trefoil_emit_complex(capsys, tmp_path):
    target = tmp_path / "model.json"
    code, out, _ = run(capsys, ["example", "trefoil", "--n", "2",
                                "--emit-complex", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["ranks"] == [1, 5, 0, 0]


def test_bounds_report(capsys, tmp_path):
    model = tmp_path / "model.json"
    main(["example", "trefoil", "--n", "3", "--emit-complex", str(model)])
    capsys.readouterr()
    code, out, _ = run(capsys, ["bounds", "-c", str(model),
                                "--a", "rat:1/2", "--dim-e", "2"])
    assert code == 0
    assert "c_1 >= 3" in out
    assert "prime: 2" in out


def test_bounds_unit_refusal_names_polynomial(capsys, tmp_path):
    model = tmp_path / "model.json"
    main(["example", "trefoil", "--n", "1", "--emit-complex", str(model)])
    capsys.readouterr()
    code, _, err = run(capsys, ["bounds", "-c", str(model),
                                "--a", "root:t^2 - t - 1"])
    assert code == 3
    assert "t^2 - t - 1" in err


def test_bounds_prime_override_checked(capsys, tmp_path):
    model = tmp_path / "model.json"
    main(["example", "trefoil", "--n", "1", "--emit-complex", str(model)])
    capsys.readouterr()
    code, out, _ = run(capsys, ["bounds", "-c", str(model),
                                "--a", "rat:1/2", "--prime", "2"])
    assert code == 0 and "caller override" in out
    code, _, err = run(capsys, ["bounds", "-c", str(model),
                                "--a", "rat:1/2", "--prime", "5"])
    assert code == 3 and "not admissible" in err


def test_zero_minimal_polynomial_is_a_usage_error(capsys):
    """``root:0`` is malformed input: exit 2 with a message, not a
    traceback."""
    code, out, err = run(capsys, ["unit-check", "root:0"])
    assert (code, out) == (2, "")
    assert err == "error: minimal polynomial must be nonconstant\n"


def test_unit_check_classifications(capsys):
    code, out, _ = run(capsys, ["unit-check", "root:t^2 - t + 1"])
    assert code == 0 and "Dirichlet unit: yes" in out
    code, out, _ = run(capsys, ["unit-check", "root:t - 2"])
    assert code == 0
    assert "algebraic integer: yes" in out and "Dirichlet unit: no" in out
    code, out, _ = run(capsys, ["unit-check", "root:2*t - 1"])
    assert code == 0 and "algebraic integer: no" in out


def test_verify_order_text(capsys):
    code, out, _ = run(capsys, ["verify-order", "--lhs", "1,2,1", "--rhs", "0"])
    assert code == 0
    assert "dominates: true, T = t + 1" in out
    code, out, _ = run(capsys, ["verify-order", "--lhs", "1", "--rhs", "0,1"])
    assert code == 0
    assert "dominates: false" in out


def test_verify_order_rejects_garbage(capsys):
    code, _, err = run(capsys, ["verify-order", "--lhs", "1,x", "--rhs", "0"])
    assert code == 2


def test_compare_ideals(capsys, tmp_path):
    model = tmp_path / "model.json"
    main(["example", "trefoil", "--n", "3", "--emit-complex", str(model)])
    capsys.readouterr()
    code, out, _ = run(capsys, ["compare-ideals", "-c", str(model),
                                "--a", "rat:1/2"])
    assert code == 0
    assert "containment ok" in out
    assert "dominates: true" in out


@pytest.fixture()
def trefoil_model(tmp_path, capsys):
    path = tmp_path / "model.json"
    assert main(["example", "trefoil", "--n", "1", "--emit-complex", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_compare_ideals_bad_prime_refused(capsys, trefoil_model):
    # 1/a = 2 has minimal polynomial t - 2, and neither prime divides -2
    for prime in ("5", "7"):
        code, out, err = run(capsys, ["compare-ideals", "-c", trefoil_model,
                                      "--a", "rat:1/2", "--prime", prime])
        assert code == 3 and out == ""
        assert err.startswith("refused:") and "Traceback" not in err
        assert "not admissible" in err


@pytest.mark.parametrize("command", ["bounds", "compare-ideals"])
def test_composite_prime_override_refused(capsys, trefoil_model, command):
    code, out, err = run(capsys, [command, "-c", trefoil_model,
                                  "--a", "rat:1/2", "--prime", "4"])
    assert code == 3 and out == ""
    assert "not prime" in err


@pytest.mark.parametrize("command", ["bounds", "compare-ideals"])
@pytest.mark.parametrize("spec", ["rat:1/2", "root:2*t^2 + t + 1", "root:3*t^3 - 2"])
def test_twist_certified_at_most_once_per_run(capsys, trefoil_model, monkeypatch,
                                              command, spec):
    """The reciprocal of a certified twist is not certified again."""
    calls = []
    certify = formzeros.fields.is_irreducible

    def counting(*args, **kwargs):
        calls.append(args[0])
        return certify(*args, **kwargs)

    monkeypatch.setattr(formzeros.fields, "is_irreducible", counting)
    code, _, _ = run(capsys, [command, "-c", trefoil_model, "--a", spec])
    assert code == 0
    assert len(calls) <= 1


def test_uncertified_twist_warns_once_per_bounds_run(capsys, trefoil_model):
    # t^20 - 2 is beyond the construction-time certification limit
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, ["bounds", "-c", trefoil_model,
                                    "--a", "root:t^20 - 2"])
    assert code == 0 and "root of t^20 - 2" in out
    uncertified = [w for w in caught if "not certified" in str(w.message)]
    assert len(uncertified) == 1


def test_bott_check_exit_codes(capsys):
    ok = ["bott-check", "--components",
          '[{"index":0,"dims":[1]},{"index":1,"dims":[1]}]', "--rhs", "1,1"]
    code, out, _ = run(capsys, ok)
    assert code == 0 and "dominates: true" in out
    bad = ["bott-check", "--components", '[{"index":0,"dims":[1]}]',
           "--rhs", "3"]
    code, out, _ = run(capsys, bad)
    assert code == 1 and "dominates: false" in out


def test_bott_check_components_from_file(capsys, tmp_path):
    comp_file = tmp_path / "comps.json"
    comp_file.write_text('[{"index":0,"dims":[1]}]')
    code, out, _ = run(capsys, ["bott-check", "--components", str(comp_file),
                                "--rhs", "1"])
    assert code == 0


def test_presentation_input(capsys, tmp_path):
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({
        "m": 1,
        "generators": {"g": {"xi": -1, "mon": [[1]]}},
        "ranks": [1, 1],
        "boundaries": [[["1 - g"]]],
    }))
    code, out, _ = run(capsys, ["betti", "-p", str(pres), "--at", "int:1"])
    assert code == 0
    assert "b0=1 b1=1" in out


def test_jumps_reports_confirmed_factor(capsys, torus_file):
    code, out, _ = run(capsys, ["jumps", "-c", torus_file])
    assert code == 0
    assert "t^2 - t + 1" in out
    assert "[confirmed]" in out


def test_json_output_is_deterministic(capsys, torus_file):
    argv = ["--format", "json", "jumps", "-c", torus_file]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


@pytest.mark.parametrize(
    "matrix", ["[[0,-1],[1,1]]", "[[0,0,1],[1,0,0],[0,1,0]]"]
)
def test_example_jump_report_matches_jumps(capsys, tmp_path, matrix):
    path = str(tmp_path / "torus.json")
    code, out, _ = run(capsys, ["example", "mapping-torus", "--matrix", matrix,
                                "-o", path])
    assert code == 0
    head, _, report = out.partition("jump report:\n")
    assert head == f"complex written to {path}\n"
    code, jumps_out, _ = run(capsys, ["jumps", "-c", path])
    assert code == 0
    assert report == jumps_out


def test_twist_sweep_matches_benchmark_oracle(bench_workloads, tmp_path):
    """The first 40 twist-sweep operations of the benchmark (``bounds``
    and ``compare-ideals`` over number fields and Z/p), checked against
    their closed-form expected outputs."""
    ops = bench_workloads.TwistSweep("201", str(tmp_path)).chunk(0)[:40]
    assert len(ops) == 40
    # the second pass reuses the loaded complexes and their Betti vectors
    for _ in range(2):
        hits = cli._complex_from_text.cache_info().hits
        for op in ops:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(op.argv)
            assert (code, out.getvalue()) == op.expect, op.argv
    assert cli._complex_from_text.cache_info().hits - hits == len(ops)


# -- large primes ------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["betti", "-c", "{cx}", "--at", "zero:{p}"],
    ["bounds", "-c", "{cx}", "--a", "rat:1/2", "--prime", "{p}"],
    ["compare-ideals", "-c", "{cx}", "--a", "rat:1/2", "--prime", "{p}"],
    ["bounds", "-c", "{cx}", "--a", "rat:1/{p}"],  # the prime selected from p
])
def test_prime_past_certified_range_refused(capsys, trefoil_model, argv):
    # 2^89 - 1 is prime, but beyond what the Miller-Rabin bases decide,
    # and has no factor that trial division finds
    argv = [a.format(cx=trefoil_model, p=2**89 - 1) for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("refused:") and "cannot certify" in err
    assert "Traceback" not in err


def _run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "formzeros.cli", *argv],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def test_large_prime_target_finishes(torus_file):
    p = 10**18 + 3
    proc = _run_cli(["betti", "-c", torus_file, "--at", f"zero:{p}"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"target: prime field Z/{p} (t = 0)\n")


def test_prime_override_skips_prime_selection(torus_file):
    """With --prime, bounds never factors the twist's leading
    coefficient, so a large prime lead does not stall it."""
    p = 10**18 + 3
    proc = _run_cli(["bounds", "-c", torus_file, "--a", f"rat:1/{p}", "--prime", str(p)])
    assert proc.returncode == 0, proc.stderr
    assert f"prime: {p} (caller override)\n" in proc.stdout


def test_prime_selection_on_a_large_prime_lead_finishes(torus_file):
    """``bounds`` picks its prime from the twist's leading coefficient;
    a prime lead of 10^18 + 3 is certified, not trial-divided."""
    p = 10**18 + 3
    proc = _run_cli(["bounds", "-c", torus_file, "--a", f"rat:1/{p}"])
    assert proc.returncode == 0, proc.stderr
    line = f"prime: {p} (smallest prime dividing the leading coefficient {p})\n"
    assert line in proc.stdout


def test_rational_roots_of_a_large_free_term_finish():
    """The rational-root search lists the divisors of 10^18 from its
    factorisation, not by trial division up to 10^9."""
    proc = _run_cli(["unit-check", "root:t^2 - 1000000000000000000"])
    assert proc.returncode == 2
    assert "is reducible" in proc.stderr and "Traceback" not in proc.stderr


def test_rational_root_search_is_bounded():
    """About 4.5 * 10^7 rational-root candidates (6720 divisors at each
    end): the search stops at the irreducibility budget, and the twist
    is accepted with the uncertified warning."""
    proc = _run_cli(["unit-check", "root:963761198400*t^2 + t + 963761198400"])
    assert proc.returncode == 0, proc.stderr
    assert "not certified" in proc.stderr and "Traceback" not in proc.stderr
    assert "algebraic: yes\n" in proc.stdout


# -- reuse within a process -------------------------------------------


def test_repeated_jumps_reuse_the_complex_facts(capsys, torus_file, monkeypatch):
    """A second ``jumps`` run on the same file finds the minor gcds and
    generic ranks in the loaded complex's memo."""
    cli._complex_from_text.cache_clear()
    calls = []
    for name in ("minor_gcd", "matrix_rank"):  # bounds ranks generically only
        def counting(*args, _fn=getattr(formzeros.bounds, name), _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(formzeros.bounds, name, counting)
    first = run(capsys, ["jumps", "-c", torus_file])
    assert first[0] == 0 and "[confirmed]" in first[1]
    assert sorted(set(calls)) == ["matrix_rank", "minor_gcd"]
    del calls[:]
    assert run(capsys, ["jumps", "-c", torus_file]) == first
    assert calls == []


def test_parser_built_lazily_and_once():
    script = (
        "import sys\n"
        "calls = []\n"
        "def count(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name == 'build_parser':\n"
        "        calls.append(frame.f_code.co_filename)\n"
        "sys.setprofile(count)\n"
        "import formzeros.cli as cli\n"
        "at_import = len(calls)\n"
        "for _ in range(5):\n"
        "    cli.main(['verify-order', '--lhs', '1,1', '--rhs', '1'])\n"
        "    cli.main(['bott-check', '--bogus'])\n"
        "sys.setprofile(None)\n"
        "print(at_import, len(calls))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=30, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 1"


def _complex_text(entry: str) -> str:
    return json.dumps({"ring": "Z[t]", "ranks": [1, 1], "boundaries": [[[entry]]]})


def test_rewritten_complex_file_is_reloaded(capsys, tmp_path):
    path = tmp_path / "cx.json"
    argv = ["betti", "-c", str(path), "--at", "int:2"]
    path.write_text(_complex_text("t - 2"))
    assert run(capsys, argv)[:2] == (0, "target: evaluation at t = 2\nb0=1 b1=1\neuler = 0\n")
    # same length, same file name, new complex
    path.write_text(_complex_text("t - 3"))
    assert run(capsys, argv)[:2] == (0, "target: evaluation at t = 2\nb0=0 b1=0\neuler = 0\n")


@pytest.mark.parametrize("text, code, message", [
    ("{not json", 2, "error: invalid JSON"),
    (json.dumps({"ring": "Z[t]", "ranks": [1, 1, 1], "boundaries": [[["t"]], [["t"]]]}),
     1, "invariant violated: d_1 composed with d_2"),
])
def test_bad_complex_file_fails_on_every_call(capsys, tmp_path, text, code, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    before = cli._complex_from_text.cache_info().currsize
    for _ in range(3):
        got, out, err = run(capsys, ["betti", "-c", str(path), "--at", "zero"])
        assert (got, out) == (code, "")
        assert err.startswith(message)
    assert cli._complex_from_text.cache_info().currsize == before


def test_complex_cache_stays_at_its_bound(capsys, tmp_path):
    cli._complex_from_text.cache_clear()
    bound = cli.COMPLEX_CACHE_SIZE
    paths = []
    for k in range(bound + 3):
        paths.append(tmp_path / f"cx{k}.json")
        paths[-1].write_text(_complex_text(f"t - {k + 2}"))
        assert run(capsys, ["betti", "-c", str(paths[-1]), "--at", "int:2"])[0] == 0
    info = cli._complex_from_text.cache_info()
    assert (info.currsize, info.misses, info.hits) == (bound, bound + 3, 0)
    # the same bytes under another name are served from the cache
    copy = tmp_path / "copy.json"
    copy.write_text(paths[-1].read_text())
    assert run(capsys, ["betti", "-c", str(copy), "--at", "int:2"])[0] == 0
    assert cli._complex_from_text.cache_info().hits == 1


_CONTAINMENT = re.compile(r"\((.*)\) inside \((\d+), t\)")


def test_table_containments_hold(capsys, tmp_path, trefoil_model):
    """Every ``X inside (p, t)`` that ``bounds`` or ``compare-ideals``
    prints holds: p divides X(0), so X lies in (p, t)."""
    complexes = [trefoil_model]
    for k, matrix in enumerate(["[[2,1],[1,1]]", "[[0,-1],[1,1]]"]):
        path = str(tmp_path / f"torus{k}.json")
        assert main(["example", "mapping-torus", "--matrix", matrix, "-o", path]) == 0
        complexes.append(path)
    capsys.readouterr()
    integers = ["rat:3", "int:2", "int:-6", "root:t^2 - 3", "root:t^3 + 2*t + 4"]
    twists = integers + ["rat:1/2", "rat:2/3", "rat:-5/3", "root:2*t^2 + t + 1",
                         "root:3*t^3 - 2"]
    checked = set()
    for command in ("bounds", "compare-ideals"):
        for cx in complexes:
            for spec in twists:
                code, out, _ = run(capsys, [command, "-c", cx, "--a", spec])
                assert code in (0, 3)
                for x, p in _CONTAINMENT.findall(out):
                    assert Poly.parse(x).constant_term % int(p) == 0, (command, spec, out)
                    checked.add((command, spec))
    # compare-ideals refuses every algebraic integer
    assert checked == ({("bounds", spec) for spec in twists}
                       | {("compare-ideals", spec) for spec in twists[len(integers):]})
    code, out, _ = run(capsys, ["bounds", "-c", complexes[1], "--a", "int:2"])
    assert code == 0 and "ideals: (t - 2) inside (2, t)\n" in out


_DIGITS = "1" * 5001  # past the interpreter's 4300-digit limit on int(str)


@pytest.mark.parametrize("route", [
    "complex-ranks", "complex-ranks-text", "root-coefficient", "root-exponent",
    "matrix-json", "matrix-entry", "presentation", "components", "max-factor-degree",
    "complex-ranks-float", "matrix-float", "presentation-float", "components-float",
    "exponent-cap",
])
def test_malformed_input_exits_2(capsys, tmp_path, torus_file, route):
    path = tmp_path / "input.json"
    argv = {
        "complex-ranks": ["betti", "-c", str(path), "--at", "zero"],
        "complex-ranks-text": ["betti", "-c", str(path), "--at", "zero"],
        "root-coefficient": ["unit-check", f"root:{_DIGITS}*t + 1"],
        "root-exponent": ["unit-check", f"root:t^{_DIGITS[:4989]} + 1"],
        "matrix-json": ["example", "mapping-torus", "--matrix", f"[[{_DIGITS}]]"],
        "matrix-entry": ["example", "mapping-torus", "--matrix", '[["a"]]'],
        "presentation": ["betti", "-p", str(path), "--at", "zero"],
        "components": ["bott-check", "--components",
                       f'[{{"index": {_DIGITS}, "dims": [1]}}]', "--rhs", "1"],
        "max-factor-degree": ["jumps", "-c", torus_file, "--max-factor-degree", "-1"],
        # JSON floats and bools are refused, not truncated or coerced
        "complex-ranks-float": ["betti", "-c", str(path), "--at", "zero"],
        "matrix-float": ["example", "mapping-torus", "--matrix", "[[1.5]]"],
        "presentation-float": ["betti", "-p", str(path), "--at", "zero"],
        "components-float": ["bott-check", "--components",
                             '[{"index": 0.7, "dims": [1.9]}]', "--rhs", "1"],
        "exponent-cap": ["unit-check", "root:t^10000000000 + 1"],
    }[route]
    path.write_text({
        "complex-ranks": '{"ring": "Z[t]", "ranks": [%s], "boundaries": []}' % _DIGITS,
        "complex-ranks-text": '{"ring": "Z[t]", "ranks": ["a"], "boundaries": []}',
        "presentation": '{"m": %s}' % _DIGITS,
        "complex-ranks-float": '{"ring": "Z[t]", "ranks": [1.5], "boundaries": []}',
        "presentation-float": json.dumps({
            "m": 1, "generators": {"g": {"xi": -1, "mon": [[1]]}},
            "ranks": [1, True], "boundaries": [[["1 - g"]]],
        }),
    }.get(route, ""))
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err) < 400
