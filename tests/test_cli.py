import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import rdsvar as rv
from rdsvar.cli import build_parser, main
from rdsvar.experiment import run_full
from rdsvar.rng import generator
from conftest import seeds_with_one_recruit

try:
    import jsonschema

    HAVE_JSONSCHEMA = True
except ImportError:
    HAVE_JSONSCHEMA = False

SCHEMA_DIR = Path(rv.__file__).parent / "schemas"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_module(*argv) -> subprocess.CompletedProcess:
    """Run ``python -m rdsvar.cli`` in a child process that imports this checkout's ``src/``.

    pytest's ``pythonpath`` setting reaches only the test process, so the
    child gets it in ``PYTHONPATH``, ahead of any inherited entries.
    """
    path = os.pathsep.join(p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "rdsvar.cli", *map(str, argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def validate_schema(payload: dict, schema_name: str):
    if not HAVE_JSONSCHEMA:
        pytest.skip("jsonschema not installed")
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.Draft7Validator(schema).validate(payload)


@pytest.fixture(scope="module")
def study_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("study")
    g, attrs = rv.make_study_population(120, seed=3)
    edges = tmp / "edges.txt"
    lines = []
    for i in range(g.n_nodes):
        for j in g.neighbors(i):
            if i < int(j):
                lines.append(f"{g.node_ids[i]} {g.node_ids[int(j)]}")
    edges.write_text("\n".join(lines) + "\n")
    attr_path = tmp / "attrs.csv"
    rows = ["id," + ",".join(attrs.column_names)]
    for i, nid in enumerate(g.node_ids):
        rows.append(nid + "," + ",".join(str(int(v)) for v in attrs.values[i]))
    attr_path.write_text("\n".join(rows) + "\n")
    return tmp, edges, attr_path, g, attrs


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def test_usage_error_missing_edges(capsys):
    code = run_cli("simulate", "--seeds", "2", "--coupons", "1", "--pmf", "0,1", "--n", "5")
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 1
    assert "--edges" in err["error"]["message"]
    validate_schema(err, "error.schema.json")


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli("simulate", "--bogus", "1") == 1


def test_missing_input_file_is_data_error(tmp_path, capsys):
    code = run_cli("ingest", "--edges", tmp_path / "nope.txt", "--out", tmp_path)
    assert code == 2


def test_ingest_summary(study_files, tmp_path, capsys):
    tmp, edges, attr_path, g, attrs = study_files
    assert run_cli("ingest", "--edges", edges, "--attrs", attr_path, "--out", tmp_path) == 0
    payload = json.loads((tmp_path / "load_summary.json").read_text())
    assert payload["n_nodes"] == g.n_nodes
    assert payload["n_edges"] == g.n_edges
    assert payload["node_ids"] == list(g.node_ids)
    assert payload["attribute_columns"] == attrs.column_names
    validate_schema(payload, "load_summary.schema.json")


def test_simulate_writes_forest_and_summary(study_files, tmp_path):
    tmp, edges, attr_path, g, attrs = study_files
    code = run_cli(
        "simulate", "--edges", edges, "--seeds", "3", "--coupons", "3",
        "--pmf", "1/3,1/6,1/6,1/3", "--n", "40", "--seed", "42", "--out", tmp_path,
    )
    assert code == 0
    forest = rv.read_forest_csv(tmp_path / "forest.csv")
    assert forest.n == 40
    payload = json.loads((tmp_path / "simulate_summary.json").read_text())
    assert payload["n_entries"] == 40
    validate_schema(payload, "simulate_summary.schema.json")
    # same seed -> same pipeline in process
    design = rv.RdsDesign(3, 3, (1 / 3, 1 / 6, 1 / 6, 1 / 3), 40)
    expected = rv.simulate_rds(g, design, generator(42, 0))
    assert forest == expected


def test_bootstrap_roundtrip_matches_in_process(study_files, tmp_path):
    tmp, edges, attr_path, g, attrs = study_files
    sim_dir = tmp_path / "sim"
    run_cli(
        "simulate", "--edges", edges, "--seeds", "3", "--coupons", "3",
        "--pmf", "1/3,1/6,1/6,1/3", "--n", "40", "--seed", "11", "--out", sim_dir,
    )
    boot_dir = tmp_path / "boot"
    code = run_cli(
        "bootstrap", "--forest", sim_dir / "forest.csv", "--attrs", attr_path,
        "--attribute", "mix_half", "--method", "neighbourhood", "--B", "300",
        "--estimator", "vh", "--level", "0.95", "--seed", "7", "--out", boot_dir,
        "--dump-estimates",
    )
    assert code == 0
    payload = json.loads((boot_dir / "bootstrap.json").read_text())
    validate_schema(payload, "bootstrap_result.schema.json")

    design = rv.RdsDesign(3, 3, (1 / 3, 1 / 6, 1 / 6, 1 / 3), 40)
    forest = rv.simulate_rds(g, design, generator(11, 0))
    z = attrs.column("mix_half")[forest.node_index].astype(float)
    cfg = rv.BootstrapConfig("neighbourhood", 300, estimator="vh")
    dist = rv.bootstrap_distribution(forest, cfg, z, root=7)
    assert payload["point_estimate"] == dist.estimator_on_original
    assert payload["variance"] == rv.bootstrap_variance(dist)
    lo, hi = rv.percentile_ci(dist, 0.95)
    assert (payload["ci"]["lo"], payload["ci"]["hi"]) == (lo, hi)
    est_lines = (boot_dir / "bootstrap_estimates.csv").read_text().splitlines()
    assert len(est_lines) == 301
    assert float(est_lines[1].split(",")[1]) == dist.estimates[0]


def test_bootstrap_ipw_needs_totals(study_files, tmp_path, capsys):
    tmp, edges, attr_path, g, attrs = study_files
    sim_dir = tmp_path / "sim"
    run_cli(
        "simulate", "--edges", edges, "--seeds", "2", "--coupons", "1", "--pmf", "0,1",
        "--n", "20", "--seed", "1", "--out", sim_dir,
    )
    code = run_cli(
        "bootstrap", "--forest", sim_dir / "forest.csv", "--attrs", attr_path,
        "--attribute", "mix_half", "--method", "tree", "--B", "50",
        "--estimator", "ipw", "--seed", "2", "--out", tmp_path,
    )
    assert code == 1
    code = run_cli(
        "bootstrap", "--forest", sim_dir / "forest.csv", "--attrs", attr_path,
        "--attribute", "mix_half", "--method", "tree", "--B", "50",
        "--estimator", "ipw", "--seed", "2", "--edges", edges, "--out", tmp_path,
    )
    assert code == 0


def test_oracle_ipw_without_totals_names_only_its_own_flags(tmp_path, capsys):
    # oracle has no --edges, so the message must not offer it
    forest_csv = tmp_path / "tiny.csv"
    forest_csv.write_text("id,recruiter,degree\nM,,2\nN,M,3\n")
    attrs_csv = tmp_path / "z.csv"
    attrs_csv.write_text("id,flag\nM,0\nN,1\n")
    code = run_cli(
        "oracle", "--forest", forest_csv, "--attrs", attrs_csv, "--attribute", "flag",
        "--method", "tree", "--estimator", "ipw", "--out", tmp_path,
    )
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"]["message"] == "ipw needs --population-size and --total-degree"
    # bootstrap does take --edges, and still names it
    code = run_cli(
        "bootstrap", "--forest", forest_csv, "--attrs", attrs_csv, "--attribute", "flag",
        "--method", "tree", "--B", "10", "--estimator", "ipw", "--out", tmp_path,
    )
    assert code == 1
    message = json.loads(capsys.readouterr().err)["error"]["message"]
    assert message == "ipw needs --population-size and --total-degree, or --edges"


def test_choices_are_the_library_option_names():
    library = {
        "method": rv.bootstrap.METHODS,
        "pool": rv.bootstrap.POOLS,
        "tree_seed_mode": rv.bootstrap.SEED_MODES,
        "estimator": rv.bootstrap.ESTIMATORS,
        "regime": rv.simulate.REGIMES,
    }
    with_choices = {
        (name, a.dest): a.choices
        for name, p in build_parser().commands.items()
        for a in p._actions
        if a.choices is not None
    }
    assert sorted(with_choices) == [
        ("bootstrap", "estimator"), ("bootstrap", "method"), ("bootstrap", "pool"), ("bootstrap", "tree_seed_mode"),
        ("experiment", "regime"),
        ("oracle", "estimator"), ("oracle", "method"), ("oracle", "pool"), ("oracle", "tree_seed_mode"),
        ("simulate", "regime"),
    ]
    for (_, dest), choices in with_choices.items():
        assert tuple(choices) == library[dest]


# every option string of each subcommand, in declaration order: the config
# echo in every JSON output lists the flags in this order
OPTION_STRINGS = {
    "ingest": ["--config", "--out", "--edges", "--attrs", "--lcc"],
    "simulate": [
        "--config", "--out", "--edges", "--seeds", "--coupons", "--pmf", "--n", "--seed", "--regime",
        "--no-reseed", "--lcc",
    ],
    "bootstrap": [
        "--config", "--out", "--forest", "--attrs", "--attribute", "--method", "--B", "--estimator", "--level",
        "--pool", "--tree-seed-mode", "--seed", "--population-size", "--total-degree", "--edges", "--lcc",
        "--dump-estimates",
    ],
    "experiment": [
        "--config", "--out", "--edges", "--attrs", "--columns", "--seeds", "--coupons", "--pmf", "--n", "--R",
        "--B", "--methods", "--levels", "--width-ref", "--seed", "--workers", "--regime", "--no-reseed", "--lcc",
    ],
    "oracle": [
        "--config", "--out", "--forest", "--attrs", "--attribute", "--method", "--estimator", "--pool",
        "--tree-seed-mode", "--population-size", "--total-degree", "--check-identity",
    ],
}


def test_option_strings_are_pinned_in_declaration_order():
    commands = build_parser().commands
    assert list(commands) == list(OPTION_STRINGS)
    for name, p in commands.items():
        declared = [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
        assert declared == OPTION_STRINGS[name], name


def test_experiment_requires_seed(study_files, tmp_path, capsys):
    tmp, edges, attr_path, *_ = study_files
    code = run_cli(
        "experiment", "--edges", edges, "--attrs", attr_path, "--seeds", "3",
        "--coupons", "3", "--pmf", "1/3,1/6,1/6,1/3", "--n", "30", "--R", "2", "--B", "2",
        "--width-ref", "100", "--out", tmp_path,
    )
    assert code == 1
    assert "--seed" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_experiment_smoke_and_schema(study_files, tmp_path, monkeypatch):
    tmp, edges, attr_path, g, attrs = study_files
    reports = []

    def keep(*args, **kwargs):
        reports.append(run_full(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr("rdsvar.cli.run_full", keep)
    code = run_cli(
        "experiment", "--edges", edges, "--attrs", attr_path, "--columns", "mix_half,clustered",
        "--seeds", "3", "--coupons", "3", "--pmf", "1/3,1/6,1/6,1/3", "--n", "30",
        "--R", "2", "--B", "2", "--width-ref", "100", "--seed", "5", "--out", tmp_path,
    )
    assert code == 0
    payload = json.loads((tmp_path / "experiment_report.json").read_text())
    assert payload["config"]["cli"]["R"] == 2
    # writing the report leaves the report itself as run_full returned it
    assert "cli" not in reports[0].to_json_dict()["config"]
    validate_schema(payload, "experiment_report.schema.json")
    csv_text = (tmp_path / "experiment_report.csv").read_text()
    assert csv_text.splitlines()[0] == "attribute,method,level,coverage,mean_width,expected_width,mean_boot_var,mse,rel_bias"
    assert len(csv_text.splitlines()) == 1 + 2 * 2 * 2


@pytest.mark.parametrize(
    "option, value, what",
    [("--columns", "mix_half,mix_half", "attributes"), ("--methods", "tree,tree", "methods"), ("--levels", "0.9,0.9", "ci levels")],
)
def test_experiment_repeated_names_are_data_errors(study_files, tmp_path, capsys, option, value, what):
    tmp, edges, attr_path, *_ = study_files
    code = run_cli(
        "experiment", "--edges", edges, "--attrs", attr_path, "--seeds", "3", "--coupons", "3",
        "--pmf", "1/3,1/6,1/6,1/3", "--n", "30", "--R", "2", "--B", "2", "--width-ref", "100",
        "--seed", "5", option, value, "--out", tmp_path,
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "DataError"
    assert err["error"]["message"].startswith(f"{what} must not repeat")
    validate_schema(err, "error.schema.json")
    assert not (tmp_path / "experiment_report.csv").exists()


def _starved_experiment_argv(tmp_path) -> list[str]:
    """An experiment on the 3-node path whose seed never recruits: all 3 replications starve."""
    edges = tmp_path / "path.txt"
    edges.write_text("a b\nb c\n")
    attrs_csv = tmp_path / "x.csv"
    attrs_csv.write_text("id,x\na,1\nb,0\nc,1\n")
    return [str(a) for a in (
        "experiment", "--edges", edges, "--attrs", attrs_csv, "--seeds", "1", "--coupons", "1",
        "--pmf", "1,0", "--n", "3", "--no-reseed", "--R", "3", "--B", "5", "--width-ref", "100",
        "--seed", "1", "--out", tmp_path,
    )]


def test_experiment_all_replications_starved_is_data_error(tmp_path, capsys):
    code = run_cli(*_starved_experiment_argv(tmp_path))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "DataError"
    assert "fewer than 2 completed replications (3 starved)" in err["error"]["message"]
    validate_schema(err, "error.schema.json")


def test_experiment_starved_stderr_is_one_error_json(tmp_path):
    # the whole of stderr, as a shell sees it, is the error document
    proc = run_module(*_starved_experiment_argv(tmp_path))
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert "(3 starved)" in err["error"]["message"]
    validate_schema(err, "error.schema.json")


# sha256 of forest.csv and simulate_summary.json, taken while the forest
# stored its wave and seed_index columns: the columns derived from the
# links must write the same bytes, max_wave included. Both configs have
# reseeds and a truncated recruit count.
SIMULATE_SHA256 = {
    "without_replacement": (
        "fe8246f52865aa8e4f7d3892cc2794fbda861a08f9fa7bedc214828b0be47429",
        "9cffef6c00a2f2ac6a2dbcc8aa003c69ad2e0586a39b63f8354e792214a6cdf2",
    ),
    "with_replacement_walk": (
        "74f6313e77d6b4e261e5cc9da8acd782ca6b9738c93e353ae0503014c7687ce2",
        "93ef644fd9c5e8477bf1e83914bc559e39e0f7e8b128f46785812f471bf9a53c",
    ),
}


@pytest.mark.parametrize(
    "regime, argv",
    [
        ("without_replacement", ["--seeds", "3", "--pmf", "1/3,1/6,1/6,1/3", "--n", "40", "--seed", "42"]),
        ("with_replacement_walk", ["--seeds", "1", "--pmf", "0.6,0.2,0.1,0.1", "--n", "150", "--seed", "2"]),
    ],
)
def test_simulate_outputs_are_pinned(study_files, tmp_path, monkeypatch, regime, argv):
    # relative paths, since the summary echoes them
    (tmp_path / "edges.txt").write_bytes(study_files[1].read_bytes())
    monkeypatch.chdir(tmp_path)
    code = run_cli("simulate", "--edges", "edges.txt", "--coupons", "3", "--regime", regime, *argv, "--out", "out")
    assert code == 0
    summary = json.loads(Path("out/simulate_summary.json").read_text())
    assert summary["n_reseeds"] > 0 and summary["n_truncated_recruits"] > 0
    outputs = (Path("out/forest.csv"), Path("out/simulate_summary.json"))
    got = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs)
    assert got == SIMULATE_SHA256[regime]


def test_simulate_walk_regime_flag(study_files, tmp_path):
    tmp, edges, attr_path, g, attrs = study_files
    code = run_cli(
        "simulate", "--edges", edges, "--seeds", "2", "--coupons", "1", "--pmf", "0,1",
        "--n", "150", "--seed", "4", "--regime", "with_replacement_walk", "--out", tmp_path,
    )
    assert code == 0
    forest = rv.read_forest_csv(tmp_path / "forest.csv")
    assert forest.n == 150
    # repeats allowed in the walk regime on a 120-node graph at n=150
    assert len(set(forest.node_id)) < forest.n


def test_config_file_merge_and_override(study_files, tmp_path):
    tmp, edges, attr_path, *_ = study_files
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({
        "edges": str(edges), "seeds": 3, "coupons": 3, "pmf": "1/3,1/6,1/6,1/3",
        "n": 30, "seed": 9,
    }))
    out1 = tmp_path / "o1"
    assert run_cli("simulate", "--config", conf, "--out", out1) == 0
    assert rv.read_forest_csv(out1 / "forest.csv").n == 30
    # flag overrides config key
    out2 = tmp_path / "o2"
    assert run_cli("simulate", "--config", conf, "--n", "12", "--out", out2) == 0
    assert rv.read_forest_csv(out2 / "forest.csv").n == 12


def test_config_file_unknown_key_rejected(study_files, tmp_path, capsys):
    tmp, edges, attr_path, *_ = study_files
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"edges": str(edges), "walrus": 1}))
    assert run_cli("simulate", "--config", conf) == 1
    assert "walrus" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_config_value_the_flag_rejects_is_usage_error(tmp_path, capsys):
    forest_csv = tmp_path / "tiny.csv"
    forest_csv.write_text("id,recruiter,degree\nM,,2\nN,M,3\nO,M,1\n")
    attrs_csv = tmp_path / "z.csv"
    attrs_csv.write_text("id,flag\nM,0\nN,1\nO,0\n")
    base = {"forest": str(forest_csv), "attrs": str(attrs_csv), "attribute": "flag", "method": "tree", "B": 10}
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(base))
    assert run_cli("bootstrap", "--config", conf, "--out", tmp_path) == 0
    for bad in ({"B": "abc"}, {"B": 2.5}, {"method": "bagging"}, {"dump-estimates": "yes"}, {"level": [0.9]}):
        conf.write_text(json.dumps({**base, **bad}))
        assert run_cli("bootstrap", "--config", conf, "--out", tmp_path) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "UsageError"
        assert next(iter(bad)) in err["error"]["message"]
        validate_schema(err, "error.schema.json")


def test_forest_row_missing_degree_is_data_error(tmp_path, capsys):
    attrs_csv = tmp_path / "z.csv"
    attrs_csv.write_text("id,flag\nA,0\nB,1\n")
    forest_csv = tmp_path / "forest.csv"

    def bootstrap() -> int:
        return run_cli(
            "bootstrap", "--forest", forest_csv, "--attrs", attrs_csv, "--attribute", "flag",
            "--method", "tree", "--B", "10", "--out", tmp_path,
        )

    for bad_row in ("B,A", "B,A,99999999999999999999999"):  # short row; degree above int64
        forest_csv.write_text(f"id,recruiter,degree\nA,,2\n{bad_row}\n")
        assert bootstrap() == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "DataError"
        assert f"{forest_csv}:3" in err["error"]["message"]
        validate_schema(err, "error.schema.json")
    forest_csv.write_text(f"id,recruiter,degree\nA,,2\nB,A,{2**63 - 1}\n")
    assert bootstrap() == 0
    payload = json.loads((tmp_path / "bootstrap.json").read_text())
    assert payload["point_estimate"] == 2 / (2**63 + 1)  # (1/d) / (1/2 + 1/d), d = 2**63 - 1


@pytest.mark.parametrize("command", ["simulate", "bootstrap", "experiment"])
def test_negative_seed_is_usage_error(command, study_files, tmp_path, capsys):
    tmp, edges, attr_path, *_ = study_files
    forest_csv = tmp_path / "tiny.csv"
    forest_csv.write_text("id,recruiter,degree\nM,,2\nN,M,3\nO,M,1\n")
    attrs_csv = tmp_path / "z.csv"
    attrs_csv.write_text("id,flag\nM,0\nN,1\nO,0\n")
    design = ["--edges", edges, "--seeds", "2", "--coupons", "1", "--pmf", "0,1", "--n", "10"]
    argv = {
        "simulate": design,
        "bootstrap": [
            "--forest", forest_csv, "--attrs", attrs_csv, "--attribute", "flag", "--method", "tree", "--B", "10",
        ],
        "experiment": [*design, "--attrs", attr_path, "--R", "2", "--B", "2", "--width-ref", "100"],
    }[command]
    assert run_cli(command, *argv, "--seed", "-1", "--out", tmp_path) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "UsageError"
    assert "--seed" in err["error"]["message"]
    validate_schema(err, "error.schema.json")


def test_oracle_matches_enumeration(tmp_path):
    forest_csv = tmp_path / "tiny.csv"
    forest_csv.write_text("id,recruiter,degree\nM,,2\nN,M,3\nO,M,1\nP,N,2\n")
    attrs_csv = tmp_path / "z.csv"
    attrs_csv.write_text("id,flag\nM,0\nN,1\nO,0\nP,0\n")
    code = run_cli(
        "oracle", "--forest", forest_csv, "--attrs", attrs_csv, "--attribute", "flag",
        "--method", "neighbourhood", "--out", tmp_path,
    )
    assert code == 0
    payload = json.loads((tmp_path / "oracle.json").read_text())
    validate_schema(payload, "oracle_report.schema.json")
    assert payload["distribution"]["mean_exact"] == "7/24"
    probs = [o["probability_exact"] for o in payload["distribution"]["outcomes"]]
    assert probs == ["1/4", "1/2", "1/4"]


def test_oracle_identity_flag(tmp_path, monkeypatch):
    # under either method the CLI's law is one the identity needs, so each
    # method's law is enumerated once
    calls = Counter()

    def counting(name):
        enumerate_law = getattr(rv.exact, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return enumerate_law(*args, **kwargs)

        monkeypatch.setattr(rv.exact, name, counted)
        monkeypatch.setattr(rv.cli, name, counted)

    counting("enumerate_neighbourhood"), counting("enumerate_tree")
    forest_csv = tmp_path / "bal.csv"
    forest_csv.write_text(
        "id,recruiter,degree\nS,,2\nA,S,3\nB,S,1\nA1,A,2\nA2,A,2\nB1,B,4\nB2,B,1\n"
    )
    attrs_csv = tmp_path / "z.csv"
    attrs_csv.write_text("id,flag\nS,1\nA,1\nB,0\nA1,0\nA2,1\nB1,0\nB2,1\n")
    idents = []
    for method in ("neighbourhood", "tree"):
        calls.clear()
        code = run_cli(
            "oracle", "--forest", forest_csv, "--attrs", attrs_csv, "--attribute", "flag",
            "--method", method, "--check-identity", "--out", tmp_path / method,
        )
        assert code == 0
        payload = json.loads((tmp_path / method / "oracle.json").read_text())
        validate_schema(payload, "oracle_report.schema.json")
        ident = payload["moment_identity"]
        assert ident["neighbourhood_enumerated"] == ident["neighbourhood_closed_form"]
        assert ident["neighbourhood_enumerated"]["mean_exact"] == ident["non_seed_mean_exact"] == "1/2"
        assert ident["exact_diff"]["neighbourhood_variance_enumerated_minus_closed_form"] == "0"
        assert ident["tree_enumerated"] == ident["tree_closed_form"]
        assert calls == {"enumerate_neighbourhood": 1, "enumerate_tree": 1}, method
        idents.append(ident)
    assert idents[0] == idents[1]


def test_enumeration_budget_exit_code(tmp_path, capsys):
    # 300 recruiters whose one recruit's degrees differ: about 300 distinct
    # vh keys, so the second convolution needs over the default 10**7 products
    forest_csv = tmp_path / "big.csv"
    rv.write_forest_csv(seeds_with_one_recruit(range(1, 301)), forest_csv)
    attrs_csv = tmp_path / "z.csv"
    attrs_csv.write_text("id,flag\n" + "".join(f"{tag}{j},0\n" for tag in "sr" for j in range(300)))
    code = run_cli(
        "oracle", "--forest", forest_csv, "--attrs", attrs_csv, "--attribute", "flag",
        "--method", "neighbourhood", "--estimator", "vh", "--out", tmp_path,
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "BudgetError"
    validate_schema(err, "error.schema.json")


@pytest.mark.parametrize(
    "argv, exc",
    [
        (["bootstrap", "--forest", "f.csv", "--attrs", "z.csv", "--attribute", "x", "--method", "tree",
          "--B", "100000000000"],
         MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64")),
        (["simulate", "--edges", "e.txt", "--seeds", "1", "--coupons", "1", "--pmf", "0,1",
          "--regime", "with_replacement_walk", "--n", "10000000000"], MemoryError()),
    ],
    ids=["bootstrap", "simulate"],
)
def test_memory_error_is_a_budget_error(monkeypatch, tmp_path, capsys, argv, exc):
    # the command is replaced by one that fails as the real one would fail
    # at its first big allocation, so the test allocates nothing
    def fail(cfg):
        raise exc

    monkeypatch.setitem(rv.cli._COMMANDS, argv[0], fail)
    assert run_cli(*argv, "--out", tmp_path) == 3
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"]["type"] == "BudgetError" and err["error"]["exit_code"] == 3
    assert err["error"]["message"] == (f"out of memory: {exc}" if str(exc) else "out of memory")
    assert captured.out == ""
    validate_schema(err, "error.schema.json")


def _capped_argv(study_files, tmp_path, case):
    """(argv, cap name, what the run needs under that cap, flag, cap unit) for a small run of ``case``."""
    tmp, edges, attr_path, g, attrs = study_files
    design = ["--seeds", "3", "--coupons", "3", "--pmf", "1/3,1/6,1/6,1/3", "--n", "40"]
    if case == "simulate":
        return ["simulate", "--edges", edges, *design], "MAX_TAPE_WORDS", rv.simulate._tape_size(
            rv.RdsDesign(3, 3, (1 / 3, 1 / 6, 1 / 6, 1 / 3), 40)
        ), "--n 40", "words"
    if case == "bootstrap":
        sim_dir = tmp_path / "sim"
        assert run_cli("simulate", "--edges", edges, *design, "--out", sim_dir) == 0
        argv = ["bootstrap", "--forest", sim_dir / "forest.csv", "--attrs", attr_path, "--attribute", "mix_half",
                "--method", "tree", "--B", "150"]
        return argv, "MAX_ESTIMATE_FLOATS", 150, "--B 150", "floats"
    argv = ["experiment", "--edges", edges, "--attrs", attr_path, "--columns", "mix_half,rare_tenth", *design,
            "--R", "2", "--seed", "1"]
    if case == "experiment":
        return [*argv, "--B", "150", "--width-ref", "100"], "MAX_ESTIMATE_FLOATS", 2 * 150, "--B 150", "floats"
    if case == "experiment-width-ref":
        # B * columns stays under the cap, W * columns is what reaches it
        return [*argv, "--B", "50", "--width-ref", "200"], "MAX_ESTIMATE_FLOATS", 2 * 200, "--width-ref 200", "floats"
    return [*argv, "--B", "20", "--width-ref", "100"], "MAX_REPLICATIONS", 2, "--R 2", "replications"


@pytest.mark.parametrize("case", ["simulate", "bootstrap", "experiment", "experiment-width-ref", "experiment-R"])
def test_a_size_past_its_cap_stops_before_any_draw(study_files, tmp_path, monkeypatch, capsys, case):
    # at the cap the command runs; one past it, it is a BudgetError naming the
    # flag before anything is drawn or allocated
    argv, cap, need, flag, unit = _capped_argv(study_files, tmp_path, case)
    monkeypatch.setattr(rv.cli, cap, need)
    assert run_cli(*argv, "--out", tmp_path / "at") == 0
    capsys.readouterr()

    def drew(*args, **kwargs):
        raise AssertionError("drew past a cap")

    for name in ("simulate_rds", "bootstrap_distribution", "run_full"):
        monkeypatch.setattr(rv.cli, name, drew)
    monkeypatch.setattr(rv.cli, cap, need - 1)
    assert run_cli(*argv, "--out", tmp_path / "past") == 3
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err["error"]["type"] == "BudgetError" and err["error"]["message"].startswith(flag + " needs ")
    assert err["error"]["message"].endswith(f"past the cap of {need - 1} {unit}")
    assert captured.out == ""
    validate_schema(err, "error.schema.json")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bootstrap", "--forest", "absent.csv", "--attrs", "absent.csv", "--attribute", "x", "--method", "tree",
          "--B", "100000000000"],
         "--B 100000000000 needs 100000000000 bootstrap estimates (1 column(s)), past the cap of 67108864 floats"),
        (["simulate", "--seeds", "1", "--coupons", "1", "--pmf", "0,1", "--regime", "with_replacement_walk",
          "--n", "10000000000"],
         "--n 10000000000 needs a tape of 18000000064 random words per sample, past the cap of 33554432 words"),
    ],
    ids=["bootstrap", "simulate"],
)
def test_the_caps_stop_sizes_that_once_ran_out_of_memory(study_files, tmp_path, capsys, argv, message):
    # the two sizes that died in numpy's allocation before there were caps;
    # the bootstrap is stopped before it reads its files
    if argv[0] == "simulate":
        argv = [*argv, "--edges", study_files[1]]
    assert run_cli(*argv, "--out", tmp_path) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {"type": "BudgetError", "message": message, "exit_code": 3}


def test_oracle_tree_on_a_long_chain(tmp_path):
    # the tree law is built leaves first without recursion, so a chain far
    # deeper than Python's recursion limit has its one outcome
    rows = ["id,recruiter,degree", "e0,,2"] + [f"e{i},e{i - 1},2" for i in range(1, 1200)]
    forest_csv = tmp_path / "chain.csv"
    forest_csv.write_text("\n".join(rows) + "\n")
    attrs_csv = tmp_path / "z.csv"
    attrs_csv.write_text("id,flag\n" + "".join(f"e{i},{i % 3 == 0:d}\n" for i in range(1200)))
    code = run_cli(
        "oracle", "--forest", forest_csv, "--attrs", attrs_csv, "--attribute", "flag",
        "--method", "tree", "--out", tmp_path,
    )
    assert code == 0
    payload = json.loads((tmp_path / "oracle.json").read_text())
    validate_schema(payload, "oracle_report.schema.json")
    assert [o["probability_exact"] for o in payload["distribution"]["outcomes"]] == ["1"]
    assert payload["distribution"]["mean_exact"] == "1/3"


def test_cli_entrypoint_subprocess(study_files, tmp_path):
    tmp, edges, attr_path, *_ = study_files
    proc = run_module("--version")
    assert proc.returncode == 0
    assert rv.__version__ in proc.stdout


# Error contract: malformed input files and config values end in exit 1, 2
# or 3 with exactly one schema-valid error JSON on stderr, never a traceback
# or a warning. Each command below fails by construction once its input
# parses, so every example must take an error exit.
_CELLS = st.one_of(
    st.sampled_from(["", "a", "s", " x ", "0", "1", "3", "-1", "2.5", "1e400", "9" * 25, "#", '"', '"a,b"', "\x00", "nan"]),
    st.text(max_size=4),
)


@st.composite
def _malformed_file(draw, header: str) -> bytes:
    lines = [header.encode()] if header and draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.binary(max_size=6)))  # not necessarily UTF-8
        else:
            sep = draw(st.sampled_from([",", " ", "\t", ";"]))
            lines.append(sep.join(draw(st.lists(_CELLS, max_size=5))).encode())
    return b"\n".join(lines)


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**20), 10**20), st.floats(), st.text(max_size=8),
    st.lists(st.integers(0, 3), max_size=3),
)
_CONFIGS = st.fixed_dictionaries(
    {
        "coupons": st.one_of(st.just(1), _JSON_VALUES),
        "n": st.one_of(st.just(2), _JSON_VALUES),
        "pmf": st.one_of(st.sampled_from(["0,1", "1,1e400", "1e400", "1/0", "-1,2", "nan,1"]), _JSON_VALUES),
    },
    optional={
        key: _JSON_VALUES for key in ("seed", "regime", "no_reseed", "no-reseed", "lcc", "edges", "bogus", "config")
    },
)


def _run_captured(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _assert_error_contract(code: int, err: str) -> None:
    assert code in (1, 2, 3)
    payload = json.loads(err)
    validate_schema(payload, "error.schema.json")
    assert payload["error"]["exit_code"] == code


@settings(max_examples=60, deadline=None, derandomize=True)
@given(forest=_malformed_file("id,recruiter,degree"))
def test_malformed_forest_csv_keeps_error_contract(tmp_path_factory, forest):
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "forest.csv").write_bytes(forest)
    (tmp / "attrs.csv").write_text("id,x\n")  # no ids: a forest that parses still fails
    _assert_error_contract(*_run_captured([
        "bootstrap", "--forest", tmp / "forest.csv", "--attrs", tmp / "attrs.csv", "--attribute", "x",
        "--method", "tree", "--B", "5", "--out", tmp,
    ]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(edges=_malformed_file(""))
def test_malformed_edge_list_keeps_error_contract(tmp_path_factory, edges):
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "edges.txt").write_bytes(edges)
    # no edge list this small holds 10**6 nodes, so a graph that loads still fails
    _assert_error_contract(*_run_captured([
        "simulate", "--edges", tmp / "edges.txt", "--lcc", "--seeds", "1", "--coupons", "1", "--pmf", "0,1",
        "--n", "1000000", "--out", tmp,
    ]))


@pytest.mark.parametrize("header, name", [("id,x,x", "'x'"), ("id,,x", "header column 2")])
def test_ingest_rejects_repeated_or_empty_column_names(tmp_path, header, name):
    (tmp_path / "edges.txt").write_text("a b\n")
    (tmp_path / "attrs.csv").write_text(f"{header}\na,1,0\nb,0,1\n")
    code, err = _run_captured(["ingest", "--edges", tmp_path / "edges.txt", "--attrs", tmp_path / "attrs.csv", "--out", tmp_path])
    _assert_error_contract(code, err)
    assert code == 2 and name in json.loads(err)["error"]["message"]
    assert not (tmp_path / "load_summary.json").exists()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=st.one_of(_CONFIGS.map(lambda d: json.dumps(d).encode()), st.binary(max_size=12)))
@example(config=b'{"coupons": 1, "n": 2, "pmf": "1,1e400"}')
def test_malformed_config_keeps_error_contract(tmp_path_factory, config):
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "edges.txt").write_text("a b\nb c\n")
    (tmp / "config.json").write_bytes(config)
    # --seeds 0 overrides the config and no design accepts it
    _assert_error_contract(*_run_captured([
        "simulate", "--config", tmp / "config.json", "--edges", tmp / "edges.txt", "--seeds", "0", "--out", tmp,
    ]))


@pytest.mark.parametrize(
    "command, option, message",
    [
        ("simulate", "--pmf=-1,2", "non-negative, got -1.0 for 0 recruits"),
        ("experiment", "--pmf=-1,2", "non-negative, got -1.0 for 0 recruits"),
        ("experiment", "--levels=-0.5,0.9", "ci levels must lie in (0, 1)"),
    ],
)
@pytest.mark.parametrize("attached", [False, True])
def test_negative_value_is_named_in_either_spelling(tmp_path, command, option, message, attached):
    # "--pmf -1,2" reaches the pmf check as "--pmf=-1,2" does
    spelling = [option] if attached else option.split("=", 1)
    edges = tmp_path / "path.txt"
    edges.write_text("a b\nb c\n")
    attrs_csv = tmp_path / "x.csv"
    attrs_csv.write_text("id,x\na,1\nb,0\nc,1\n")
    extra = ["--attrs", attrs_csv, "--R", "2", "--B", "5", "--seed", "1"] if command == "experiment" else []
    code, err = _run_captured([
        command, "--edges", edges, "--seeds", "1", "--coupons", "1", "--pmf", "0,1", "--n", "2", *extra,
        *spelling, "--out", tmp_path,
    ])
    _assert_error_contract(code, err)
    assert code == 2
    assert message in json.loads(err)["error"]["message"]
