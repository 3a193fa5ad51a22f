import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kirwan import cli
from kirwan.errors import VerificationError

GOLDENS = Path(__file__).parent / "goldens"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def canon_without_timings(text: str) -> str:
    payload = json.loads(text)
    del payload["timings"]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# golden reports


@pytest.mark.parametrize(
    "xi,golden",
    [
        (("1", "1", "1"), "report_1-1-1.json"),
        (("1", "1", "1", "2"), "report_1-1-1-2.json"),
        (("1", "2", "4", "8", "16"), "report_1-2-4-8-16.json"),
        pytest.param(
            ("1", "2", "4", "8", "16", "32"), "report_1-2-4-8-16-32.json",
            marks=pytest.mark.slow,
        ),
    ],
)
def test_report_matches_golden(capsys, xi, golden):
    code, out, _ = run_cli(capsys, "report", "--xi", *xi)
    assert code == 0
    assert canon_without_timings(out) == (GOLDENS / golden).read_text()


def test_report_byte_stable(capsys):
    code1, out1, _ = run_cli(capsys, "report", "--xi", "1", "1", "1")
    code2, out2, _ = run_cli(capsys, "report", "--xi", "1", "1", "1")
    assert code1 == code2 == 0
    assert canon_without_timings(out1).encode() == canon_without_timings(out2).encode()


def test_report_out_file(capsys, tmp_path):
    dest = tmp_path / "r.json"
    code, out, _ = run_cli(
        capsys, "report", "--xi", "1", "1", "1", "--out", str(dest)
    )
    assert code == 0
    assert out == ""
    assert canon_without_timings(dest.read_text()) == (
        GOLDENS / "report_1-1-1.json"
    ).read_text()


# ---------------------------------------------------------------------------
# subcommands


def test_shorts(capsys):
    code, out, _ = run_cli(capsys, "shorts", "--xi", "1", "1", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert [1] in payload["subsets"] and [1, 2] not in payload["subsets"]


def test_betti(capsys):
    code, out, _ = run_cli(capsys, "betti", "--xi", "1", "1", "1", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == [1, 4]
    assert payload["truncation_model"] == [1, 4] and payload["agrees"] is True


def test_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "--xi", "1", "1", "1")
    assert code == 0
    assert json.loads(out)["prop_hp"]["colon_equals_D_presentation"] is True


def test_present(capsys):
    code, out, _ = run_cli(capsys, "present", "--xi", "1", "1", "1")
    assert code == 0
    pres = json.loads(out)["presentation"]
    assert pres["ring_Q"]["ideal_J_generators"] == 4
    assert set(pres["D_classes"]) == {"1", "2", "3"}


def test_certify_subset(capsys):
    code, out, _ = run_cli(capsys, "certify", "--xi", "1", "1", "1", "--subset", "3")
    assert code == 0
    (cert,) = json.loads(out)["certificates"]
    assert cert["subset"] == [3]
    assert cert["verified"] is True
    assert cert["terms"] == [
        [[], "-2*c3^2 + 2*c3*x + 4*x^2"],
        [[3], "-2*c3^2 - 2*c3*x"],
    ]


def test_certify_all(capsys):
    code, out, _ = run_cli(capsys, "certify", "--xi", "1", "1", "1", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["certificates"]) == 7
    assert all(c["verified"] for c in payload["certificates"])


def test_format_text(capsys):
    code, out, _ = run_cli(
        capsys, "betti", "--xi", "1", "1", "1", "--format", "text"
    )
    assert code == 0
    assert "agrees: yes" in out


def test_version(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["--version"])
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert "kirwan" in out


# ---------------------------------------------------------------------------
# localization demos


@pytest.mark.parametrize("fixture", ["line", "product", "segre"])
def test_localize_demo(capsys, fixture):
    code, out, _ = run_cli(capsys, "localize-demo", "--fixture", fixture)
    assert code == 0, out


def test_localize_demo_segre_payload(capsys):
    code, out, _ = run_cli(capsys, "localize-demo", "--fixture", "segre")
    payload = json.loads(out)
    assert payload["k_rank"] == 4
    assert payload["rationalized_iso"] is True
    assert payload["integral_surjective"] is False
    assert payload["integral_degree2_rank"] == 2
    assert payload["integral_degree2_dimension"] == 3
    assert all(payload["checks"].values())


def test_localize_demo_line_payload(capsys):
    _, out, _ = run_cli(capsys, "localize-demo", "--fixture", "line")
    payload = json.loads(out)
    assert payload["checks"]["integral_one_vanishes"] is True
    assert payload["checks"]["integral_hyperplane_is_one"] is True
    assert payload["gram_determinant"] == "-1"


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_on_float_xi(capsys):
    code, out, err = run_cli(capsys, "shorts", "--xi", "1.5", "1", "1")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "usage"


def test_usage_error_on_unknown_command(capsys):
    code, _, _ = run_cli(capsys, "frobnicate", "--xi", "1")
    assert code == 2


def test_usage_error_on_zero_length(capsys):
    code, _, _ = run_cli(capsys, "shorts", "--xi", "1", "1", "0")
    assert code == 2


def test_usage_error_on_repeated_subset_index(capsys):
    code, out, err = run_cli(capsys, "certify", "--xi", "1", "2", "4", "8", "16",
                             "--subset", "1,1")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "usage"


def test_usage_error_on_unwritable_out(capsys, tmp_path):
    dest = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "shorts", "--xi", "1", "1", "1", "--out", str(dest))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "usage"
    assert not dest.exists()


def test_non_generic_exit(capsys):
    code, out, err = run_cli(capsys, "verify", "--xi", "1", "1", "2")
    assert code == 3
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["kind"] == "non-generic"
    assert payload["witness"] == [3]


def test_budget_exit(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--xi", "1", "1", "1", "2", "--max-basis", "2"
    )
    assert code == 4
    payload = json.loads(err)["error"]
    assert payload["kind"] == "budget"
    assert payload["limit"] == 2
    assert payload["which"] == "basis"
    assert payload["stage"]


@pytest.mark.parametrize("argv,which,stage", [
    (("certify", "--xi", "1", "1", "1", "2", "--max-degree", "2"), "degree", "certificates"),
    (("betti", "--xi", "1", "1", "1", "1", "1", "--max-basis", "2"), "basis", "betti"),
])
def test_budget_exit_names_the_stage(capsys, argv, which, stage):
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["which"] == which
    assert payload["stage"] == stage


@pytest.mark.parametrize("argv,stage", [
    # the relations c_i^2 - a2 already are a Groebner basis: nothing but the
    # five inputs would join
    (("certify", "--xi", "1", "2", "4", "8", "16", "--max-basis", "2"), "certificates"),
    # J's 21 generators: refused as the third joins, before any S-pair
    (("betti", "--xi", "1", "1", "1", "1", "1", "--max-basis", "2"), "betti"),
], ids=["certify", "betti"])
def test_max_basis_counts_every_element_that_joins(capsys, argv, stage):
    code, _, err = run_cli(capsys, *argv)
    assert code == 4
    payload = json.loads(err)["error"]
    assert (payload["which"], payload["observed"], payload["stage"]) == ("basis", 3, stage)


def test_localize_demo_honours_the_budgets(capsys):
    code, out, err = run_cli(capsys, "localize-demo", "--fixture", "segre", "--max-basis", "1")
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"]["which"] == "basis"


def test_verification_exit(capsys, monkeypatch):
    def boom(*a, **k):
        raise VerificationError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "full_report", boom)
    code, _, err = run_cli(capsys, "report", "--xi", "1", "1", "1")
    assert code == 5
    assert json.loads(err)["error"]["kind"] == "verification"


def test_failed_checks_exit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_checks_pass", lambda report: False)
    code, out, _ = run_cli(capsys, "report", "--xi", "1", "1", "1")
    assert code == 5
    json.loads(out)  # the report is still emitted


# ---------------------------------------------------------------------------
# console script


REPO = Path(__file__).resolve().parents[1]


def _declared_entry_point() -> str:
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["kirwan"]


def test_console_script_installed():
    """The ``kirwan`` console script declared in pyproject.toml runs.

    With the ``kirwan`` distribution installed, the generated script must be
    on PATH and its entry point must equal the declaration. From a checkout
    without an install, the declared ``module:function`` is called in a fresh
    interpreter the way a generated launcher calls it: ``sys.exit(func())``
    with the arguments in ``sys.argv``.
    """
    args = ["shorts", "--xi", "1", "1", "1"]
    try:
        dist = importlib.metadata.distribution("kirwan")
    except importlib.metadata.PackageNotFoundError:
        dist = None

    if dist is not None:
        exe = shutil.which("kirwan")
        assert exe, "console script missing; reinstall with pip install -e ."
        proc = subprocess.run([exe, *args], capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["count"] == 4
        installed = dist.entry_points.select(group="console_scripts", name="kirwan")
        assert [ep.value for ep in installed] == [_declared_entry_point()]
        return

    module, func = _declared_entry_point().split(":")
    launcher = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'kirwan'; sys.exit({func}())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, *args],
        capture_output=True,
        text=True,
        env=_checkout_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 4


# ---------------------------------------------------------------------------
# budget environment variables, read when the CLI starts


def _checkout_env(**variables) -> dict:
    """os.environ with the checkout's src first on PYTHONPATH, the budget
    variables cleared, then the given variables set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("KIRWAN_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    env.update(variables)
    return env


def _run_module_cli(args, **variables):
    launcher = "import sys; from kirwan.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", launcher, *args],
        capture_output=True,
        text=True,
        env=_checkout_env(**variables),
    )


@pytest.mark.parametrize(
    "var,value",
    [
        ("KIRWAN_MAX_BASIS", "abc"),
        ("KIRWAN_MAX_BASIS", "0"),
        ("KIRWAN_MAX_DEGREE", "-4"),
        ("KIRWAN_MAX_DEGREE", ""),
        ("KIRWAN_MAX_DEGREE", "1.5"),
    ],
)
def test_bad_budget_env_is_usage_error(var, value):
    proc = _run_module_cli(["shorts", "--xi", "1", "1", "1"], **{var: value})
    assert proc.returncode == 2
    assert proc.stdout == ""
    error = json.loads(proc.stderr)["error"]
    assert error["kind"] == "usage"
    assert var in error["message"]


def test_import_ignores_bad_budget_env():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import kirwan; from kirwan.ideals import DEFAULT_BUDGETS as b; "
         "print(b.max_basis, b.max_degree)"],
        capture_output=True,
        text=True,
        env=_checkout_env(KIRWAN_MAX_BASIS="abc", KIRWAN_MAX_DEGREE="0"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["4000", "160"]


def test_budget_env_sets_the_defaults():
    proc = _run_module_cli(["verify", "--xi", "1", "1", "1", "2"], KIRWAN_MAX_BASIS="2")
    assert proc.returncode == 4
    error = json.loads(proc.stderr)["error"]
    assert (error["which"], error["limit"]) == ("basis", 2)

    proc = _run_module_cli(["report", "--xi", "1", "1", "1"], KIRWAN_MAX_DEGREE="150")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["budgets"] == {"max_basis": 4000, "max_degree": 150}


def test_budget_flag_overrides_env():
    proc = _run_module_cli(
        ["report", "--xi", "1", "1", "1", "--max-basis", "3000"], KIRWAN_MAX_BASIS="2"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["budgets"]["max_basis"] == 3000
