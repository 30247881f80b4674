import hashlib
import io
import json
import re
from pathlib import Path

import jsonschema
import pytest

from crossfam.cli import EXIT_INPUT, EXIT_NEGATIVE, EXIT_OK, main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "crossfam" / "schemas" / "report.schema.json").read_text()
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def validate_document(text):
    document = json.loads(text)
    VALIDATOR.validate(document)
    return document


def validate_lines(text):
    documents = []
    for line in text.splitlines():
        document = json.loads(line)
        VALIDATOR.validate(document)
        documents.append(document)
    return documents


def strip_timing(text):
    document = json.loads(text)
    document["manifest"]["elapsed_s"] = 0
    return json.dumps(document)


STAR7 = "n=7 k=2\n1,2\n1,3\n1,4\n1,5\n1,6\n1,7\n"
SUBSTAR = "n=7 k=2\n1,2\n1,5\n"
BREAKER = "n=7 k=2\n2,3\n1,2\n"


class TestCount:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("count", "gauss", "4", "2", "2"), 35),
            (("count", "gauss", "4", "2", "3"), 130),
            (("count", "binom", "5", "2"), 10),
            (("count", "overlap-count", "4", "2", "2", "1", "2"), 18),
            (("count", "profile-set", "5", "2", "2", "1"), 6),
            (("count", "profile-subspace", "5", "2", "2", "1", "2"), 42),
            (("count", "cond-threshold", "2", "1"), 3),
            (("count", "threshold-set", "2", "2", "1"), 385),
            (("count", "threshold-subspace", "2", "2", "2", "1"), 17),
        ],
    )
    def test_values(self, argv, expected):
        code, out = run_cli(*argv)
        assert code == EXIT_OK
        document = validate_document(out)
        assert document["value"] == expected

    def test_wrong_arity_exits_2(self):
        code, _ = run_cli("count", "gauss", "4", "2")
        assert code == EXIT_INPUT

    def test_domain_error_exits_2(self):
        code, _ = run_cli("count", "gauss", "4", "2", "1")
        assert code == EXIT_INPUT

    def test_unknown_query_exits_2(self):
        code, _ = run_cli("count", "nope", "1")
        assert code == EXIT_INPUT

    def test_byte_identical_reports(self):
        _, first = run_cli("count", "threshold-set", "3", "2", "1")
        _, second = run_cli("count", "threshold-set", "3", "2", "1")
        assert strip_timing(first) == strip_timing(second)


class TestCheckFamily:
    def test_star_pair_exit_0(self, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text(STAR7)
        code, out = run_cli("check-family", str(f), str(f), "--l", "2", "--t", "1")
        assert code == EXIT_OK
        document = validate_document(out)
        assert document["report"]["satisfied"] is True

    def test_violating_pair_exit_1_with_witness(self, tmp_path):
        f = tmp_path / "f.txt"
        g = tmp_path / "g.txt"
        f.write_text(STAR7)
        g.write_text(BREAKER)
        code, out = run_cli("check-family", str(f), str(g), "--l", "2", "--t", "1")
        assert code == EXIT_NEGATIVE
        document = validate_document(out)
        report = document["report"]
        assert report["satisfied"] is False
        assert report["min_sum"] < report["threshold"] == 3
        assert len(report["witness"]["rows"]) == 2
        assert len(report["witness"]["cols"]) == 2
        # witness indices are 0-based positions in file order
        assert all(0 <= i < 6 for i in report["witness"]["rows"])

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        f = tmp_path / "f.txt"
        f.write_text("n=7 k=2\n1,2\n1,oops\n")
        code, _ = run_cli("check-family", str(f), str(f), "--l", "1", "--t", "1")
        assert code == EXIT_INPUT
        assert "line 3" in capsys.readouterr().err

    def test_universe_mismatch_exit_2(self, tmp_path):
        f = tmp_path / "f.txt"
        g = tmp_path / "g.txt"
        f.write_text("n=7 k=2\n1,2\n")
        g.write_text("n=8 k=2\n1,2\n")
        code, _ = run_cli("check-family", str(f), str(g), "--l", "1", "--t", "1")
        assert code == EXIT_INPUT

    def test_mixed_kinds_exit_2(self, tmp_path):
        f = tmp_path / "f.txt"
        g = tmp_path / "g.txt"
        f.write_text("n=4 k=2\n1,2\n")
        g.write_text("q=2 n=4\n1 0 0 0\n0 1 0 0\n")
        code, _ = run_cli("check-family", str(f), str(g), "--l", "1", "--t", "1")
        assert code == EXIT_INPUT

    def test_subspace_files(self, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("q=2 n=4\n1 0 0 0\n0 1 0 0\n\n1 0 0 1\n0 1 0 0\n")
        code, out = run_cli("check-family", str(f), str(f), "--l", "1", "--t", "1")
        assert code == EXIT_OK
        assert validate_document(out)["report"]["satisfied"] is True


class TestSunflower:
    def test_constructed_sunflower(self, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text(STAR7)
        code, out = run_cli("sunflower", str(f), "--t", "1", "--u", "6")
        assert code == EXIT_OK
        document = validate_document(out)
        assert document["sunflowers"] == [
            {"kernel": [1], "petals": [0, 1, 2, 3, 4, 5], "petal_count": 6}
        ]

    def test_no_sunflower_is_empty_list(self, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("n=6 k=2\n1,2\n3,4\n")
        code, out = run_cli("sunflower", str(f), "--t", "1", "--u", "2")
        assert code == EXIT_OK
        assert validate_document(out)["sunflowers"] == []

    def test_empty_family_exit_2(self, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("n=6 k=2\n")
        code, _ = run_cli("sunflower", str(f), "--t", "1", "--u", "2")
        assert code == EXIT_INPUT

    def test_subspace_kernel_rendered_as_rows(self, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text(
            "q=2 n=3\n1 0 0\n0 1 0\n\n1 0 0\n0 0 1\n\n1 0 0\n0 1 1\n"
        )
        code, out = run_cli("sunflower", str(f), "--t", "1", "--u", "3")
        assert code == EXIT_OK
        document = validate_document(out)
        assert document["sunflowers"][0]["kernel"] == [[1, 0, 0]]


class TestSearch:
    def test_bb_sets(self):
        code, out = run_cli(
            "search", "sets", "--n", "4", "--k", "2", "--kp", "2", "--l", "1", "--t", "1"
        )
        assert code == EXIT_OK
        document = validate_document(out)
        assert document["result"]["best_product"] == 9
        assert document["result"]["optimal"] is True
        assert document["certified"] is True

    def test_naive_matches(self):
        _, bb_out = run_cli(
            "search", "sets", "--n", "4", "--k", "2", "--kp", "2", "--l", "1", "--t", "1"
        )
        code, naive_out = run_cli(
            "search", "sets", "--n", "4", "--k", "2", "--kp", "2",
            "--l", "1", "--t", "1", "--naive",
        )
        assert code == EXIT_OK
        assert (
            json.loads(naive_out)["result"]["best_product"]
            == json.loads(bb_out)["result"]["best_product"]
        )

    def test_pool_file_subspaces(self, tmp_path):
        from crossfam.gf_subspaces import Subspace, build_star, format_subspace_family

        star = build_star(4, 2, 2, Subspace.coordinate(4, 2, [0]))
        pool_file = tmp_path / "pool.txt"
        pool_file.write_text(format_subspace_family(star))
        code, out = run_cli(
            "search", "subspaces", "--q", "2", "--n", "4", "--k", "2", "--kp", "2",
            "--l", "2", "--t", "1", "--pool", str(pool_file),
        )
        assert code == EXIT_OK
        document = validate_document(out)
        assert document["certified"] is True
        assert document["result"]["best_product"] == 49

    def test_set_pool_files_with_separate_g_side(self, tmp_path):
        pool_f = tmp_path / "f.txt"
        pool_g = tmp_path / "g.txt"
        pool_f.write_text("n=6 k=3\n1,2,3\n1,2,4\n1,3,4\n2,3,4\n")
        pool_g.write_text("n=6 k=2\n1,2\n1,3\n5,6\n")
        code, out = run_cli(
            "search", "sets", "--n", "6", "--k", "3", "--kp", "2",
            "--l", "1", "--t", "1", "--naive",
            "--pool", str(pool_f), "--pool-g", str(pool_g),
        )
        assert code == EXIT_OK
        document = validate_document(out)
        # {5,6} misses every 3-set built from {1,2,3,4}, so the best pair is
        # all four F members against the two G members through element 1
        assert document["result"]["best_product"] == 8
        assert document["certified"] is True

    def test_naive_guard_exit_2(self):
        code, _ = run_cli(
            "search", "sets", "--n", "5", "--k", "2", "--kp", "2",
            "--l", "1", "--t", "1", "--naive", "--guard", "10",
        )
        assert code == EXIT_INPUT

    def test_missing_q_exit_2(self):
        code, _ = run_cli(
            "search", "subspaces", "--n", "4", "--k", "2", "--kp", "2",
            "--l", "1", "--t", "1",
        )
        assert code == EXIT_INPUT

    def test_flag_file_mismatch_exit_2(self, tmp_path):
        f = tmp_path / "pool.txt"
        f.write_text(STAR7)
        code, _ = run_cli(
            "search", "sets", "--n", "6", "--k", "2", "--kp", "2",
            "--l", "1", "--t", "1", "--pool", str(f),
        )
        assert code == EXIT_INPUT

    def test_full_subspace_layer(self):
        code, out = run_cli(
            "search", "subspaces", "--q", "2", "--n", "4", "--k", "2", "--kp", "2",
            "--l", "1", "--t", "1",
        )
        assert code == EXIT_OK
        document = validate_document(out)
        assert document["result"]["best_product"] == 49
        assert document["result"]["optimal"] is True
        assert document["certified"] is True

    def test_enumeration_cap_exit_2(self):
        code, _ = run_cli(
            "search", "subspaces", "--q", "2", "--n", "4", "--k", "2", "--kp", "2",
            "--l", "1", "--t", "1", "--cap", "10",
        )
        assert code == EXIT_INPUT

    def test_budget_reported_as_not_optimal(self):
        code, out = run_cli(
            "search", "sets", "--n", "5", "--k", "2", "--kp", "2",
            "--l", "1", "--t", "1", "--budget", "2",
        )
        assert code == EXIT_OK
        document = validate_document(out)
        assert document["result"]["optimal"] is False
        assert document["result"]["best_product"] >= 16
        assert document["certified"] is True


    @pytest.mark.parametrize(
        "argv,message",
        [
            (("sets", "--n", "0", "--k", "0", "--kp", "0"), "n must be >= 1 (got 0)"),
            (("sets", "--n", "3", "--k", "5", "--kp", "1"), "need 0 <= k <= n (got k=5, n=3)"),
            (
                ("subspaces", "--q", "2", "--n", "3", "--k", "5", "--kp", "1"),
                "need 0 <= k <= n (got k=5, n=3)",
            ),
            (
                ("subspaces", "--q", "2", "--n", "3", "--k", "1", "--kp", "4"),
                "need 0 <= kp <= n (got kp=4, n=3)",
            ),
        ],
    )
    def test_bad_sizes_exit_2_naming_the_parameter(self, capsys, argv, message):
        code, out = run_cli("search", *argv, "--l", "1", "--t", "1")
        assert code == EXIT_INPUT
        assert out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_failed_certification_names_the_reason(self, capsys, monkeypatch):
        import crossfam.cli as cli
        from crossfam.search_engine import SearchResult

        # {1,2} and {3,4} are candidates 0 and 5 of the n=4 layer: disjoint
        monkeypatch.setattr(
            cli, "max_product_bb", lambda *args: SearchResult(1, (0,), (5,), 1, True, 9)
        )
        code, out = run_cli(
            "search", "sets", "--n", "4", "--k", "2", "--kp", "2", "--l", "1", "--t", "1"
        )
        assert code == EXIT_NEGATIVE
        assert validate_document(out)["certified"] is False
        assert capsys.readouterr().err == (
            "internal error: search result failed certification: F members [0] and "
            "G members [5] have overlap total 0, below the threshold 1\n"
        )


class TestParser:
    def test_built_once(self, monkeypatch):
        import crossfam.cli as cli

        run_cli("count", "binom", "5", "2")
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        code, out = run_cli("count", "binom", "5", "2")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == 10

    def test_usage_errors_reach_the_current_stderr(self, capsys):
        for _ in range(2):
            code, out = run_cli("count", "no-such-query")
            assert code == EXIT_INPUT
            assert out == ""
            assert "invalid choice: 'no-such-query'" in capsys.readouterr().err


class TestVerifyLemmas:
    def test_small_sweep_exit_0(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "lemmas": ["set-profile-decreasing", "subspace-sum-bound"],
                    "t": [1],
                    "k": [2, 3],
                    "l": [2],
                    "q": [2],
                    "n_policy": {"threshold_plus": [0, 1]},
                }
            )
        )
        code, out = run_cli("verify-lemmas", str(cfg))
        assert code == EXIT_OK
        documents = validate_lines(out)
        assert "summary" in documents[-1]
        summary = documents[-1]["summary"]
        assert summary["violations"] == 0
        assert summary["total"] == len(documents) - 1
        assert all("lemma" in d for d in documents[:-1])

    def test_out_of_domain_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": [2], "l": [1]}))
        code, _ = run_cli("verify-lemmas", str(cfg))
        assert code == EXIT_INPUT
        assert "l values must be >= 2" in capsys.readouterr().err

    def test_explicit_n_below_bound_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "lemmas": ["set-sum-bound"],
                    "t": [1],
                    "k": [2],
                    "l": [2],
                    "n_policy": {"explicit": [50]},
                }
            )
        )
        code, _ = run_cli("verify-lemmas", str(cfg))
        assert code == EXIT_INPUT
        assert "precondition" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        code, _ = run_cli("verify-lemmas", str(tmp_path / "nope.json"))
        assert code == EXIT_INPUT

    def test_single_tuple_config_streams_lines(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "lemmas": ["subspace-profile-decreasing"],
                    "t": [1],
                    "k": [2],
                    "q": [2],
                    "n_policy": "at_threshold",
                }
            )
        )
        code, out = run_cli("verify-lemmas", str(cfg))
        assert code == EXIT_OK
        documents = validate_lines(out)
        assert len(documents) == 2  # one report line + summary
        assert documents[0]["lemma"] == "subspace-profile-decreasing"

    def test_deterministic_modulo_timing(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lemmas": ["set-sum-bound"], "t": [1], "k": [2], "l": [2]}))
        _, first = run_cli("verify-lemmas", str(cfg))
        _, second = run_cli("verify-lemmas", str(cfg))

        def normalize(text):
            lines = text.splitlines()
            tail = json.loads(lines[-1])
            tail["manifest"]["elapsed_s"] = 0
            return lines[:-1], tail

        assert normalize(first) == normalize(second)


# --- golden report bodies -----------------------------------------------------
#
# sha256 of stdout with every manifest "elapsed_s" value set to 0, recorded
# before the modules were consolidated.  Files are written under relative
# names in a fresh working directory, so the manifest paths are stable too.

GOLDEN_FILES = {
    "star.txt": STAR7,
    "breaker.txt": BREAKER,
    "pool.txt": "n=6 k=3\n1,2,3\n1,2,4\n1,3,4\n2,3,4\n1,5,6\n",
    "gf2_ok.txt": "q=2 n=4\n1 0 0 0\n0 1 0 0\n\n1 0 0 1\n0 1 0 0\n",
    "gf2_far.txt": "q=2 n=4\n0 0 1 0\n0 0 0 1\n\n0 1 1 0\n0 0 0 1\n",
    "gf3_flower.txt": (
        "q=3 n=3\n1 0 0\n0 1 0\n\n1 0 0\n0 0 1\n\n1 0 0\n0 1 1\n\n1 0 0\n0 1 2\n"
    ),
    "sweep.json": json.dumps(
        {
            "lemmas": [
                "set-profile-decreasing",
                "set-ratio-bound",
                "set-sum-bound",
                "subspace-profile-decreasing",
                "subspace-ratio-bound",
                "subspace-sum-bound",
            ],
            "t": [1, 2],
            "k": {"min": 2, "max": 4},
            "l": [2, 3],
            "q": [2, 3],
            "n_policy": {"threshold_plus": [0, 3]},
        }
    ),
}

GOLDEN_REPORTS = [
    ("count-binom", ("count", "binom", "9", "4"), EXIT_OK,
     "34b5bd876042c95c745fb1f6569bd6cad7c03a4a2c0f0a2806ddba97ad6a1268"),
    ("count-gauss", ("count", "gauss", "5", "2", "3"), EXIT_OK,
     "3dcea9abd0505d2dcfb67c5eb3b2f21aa48e551eeb915475cccd4db909b69e94"),
    ("count-overlap", ("count", "overlap-count", "6", "3", "2", "1", "2"), EXIT_OK,
     "62905b8f77449c05117ac797bf1235836a620183c0e81b2292203a312a99fa57"),
    ("count-profile-set", ("count", "profile-set", "9", "3", "2", "1"), EXIT_OK,
     "e284ef8190dc43591579e4b58be5cfdaf82346d91d1b83a87892902298c1e489"),
    ("count-profile-subspace", ("count", "profile-subspace", "6", "3", "2", "1", "3"), EXIT_OK,
     "5a9b9906e844305e95055eb356b1209a9fa2e67199d0684840854e39df04163f"),
    ("count-cond-threshold", ("count", "cond-threshold", "3", "2"), EXIT_OK,
     "9b080697f72cbd6bfdefe64a39e65084cad50a0d03f2dbdbc98ebc40d0a46f85"),
    ("count-threshold-set", ("count", "threshold-set", "3", "2", "1"), EXIT_OK,
     "bca4379a7698b38958dab1777e91243a840fac3e6b103b30fac14bdc7f246627"),
    ("count-threshold-subspace", ("count", "threshold-subspace", "3", "2", "2", "1"), EXIT_OK,
     "89efc9d5861e9fd0fc880037e855eac172c51b95700ef25b6382e3d36adbd4c8"),
    ("sweep-all-lemmas", ("verify-lemmas", "sweep.json"), EXIT_OK,
     "4f801c5f6b1e1a1f16e69b34181f99c39a6e3f65bc3384ac513a5c5f7c40556b"),
    ("check-sets-holds", ("check-family", "star.txt", "star.txt", "--l", "2", "--t", "1"), EXIT_OK,
     "47ad4cb7a6c94526e2fa29c1e392ba524dcbe5ae50b3e631bbf4c3e70a0ad67b"),
    ("check-sets-fails", ("check-family", "star.txt", "breaker.txt", "--l", "2", "--t", "1"), EXIT_NEGATIVE,
     "f688283b214786de7d69cb27526b880b2cecf243bb9918b15d81d0f2d5f18217"),
    ("check-gf2-holds", ("check-family", "gf2_ok.txt", "gf2_ok.txt", "--l", "1", "--t", "1"), EXIT_OK,
     "a6e79bcb2769a39589aa1aec88d28d28d5107571215ee3fc9430e509b6b160ed"),
    ("check-gf2-fails", ("check-family", "gf2_ok.txt", "gf2_far.txt", "--l", "1", "--t", "1"), EXIT_NEGATIVE,
     "3c12e0df0feabd6a19280c325b04b5cf40ed31805a415fed536c88dcbed2c97f"),
    ("sunflower-sets", ("sunflower", "star.txt", "--t", "1", "--u", "3"), EXIT_OK,
     "9c20ae34e2f486cc10b8b58ede891de0446b98f03223c69ab7e78630cf0b8d2a"),
    ("sunflower-gf3", ("sunflower", "gf3_flower.txt", "--t", "1", "--u", "3"), EXIT_OK,
     "48d5800c9ca6f75114c4c8426e9bd577ec13e65fc6384e9dec280e67f7ea0201"),
    ("search-bb-layer", ("search", "sets", "--n", "5", "--k", "3", "--kp", "2", "--l", "1", "--t", "1"), EXIT_OK,
     "94a9f46fa074c315c27d10c604da5c29a58b5989b333e7e42cb35484de78681c"),
    ("search-bb-symmetry", ("search", "sets", "--n", "5", "--k", "2", "--kp", "2", "--l", "1", "--t", "1", "--symmetry"),
     EXIT_OK, "1dc0aade493e393d6dad5148fb8c6bbd5fd74b5da91282c854aef2f0b95098d4"),
    ("search-naive-layer", ("search", "sets", "--n", "4", "--k", "2", "--kp", "2", "--l", "2", "--t", "1", "--naive"),
     EXIT_OK, "3125de5ab5e245ba72ea7ea3d4d98dbf5ed00501271bdca06709d950fee55225"),
    ("search-bb-pool", ("search", "sets", "--n", "6", "--k", "3", "--kp", "3", "--l", "2", "--t", "1", "--pool", "pool.txt"),
     EXIT_OK, "560c47d50ed6a3bcc3c1f54d60ff13c31f5e120be6f1185cf5cf7f62062bfd7f"),
    ("search-naive-pool",
     ("search", "sets", "--n", "6", "--k", "3", "--kp", "3", "--l", "2", "--t", "1", "--pool", "pool.txt", "--naive"),
     EXIT_OK, "3ab559c7ce25d97f4fd70194cf4ea3b0e70ab129d76de36e8f645200c295d9fc"),
    ("search-bb-gf2", ("search", "subspaces", "--q", "2", "--n", "3", "--k", "2", "--kp", "1", "--l", "1", "--t", "1"),
     EXIT_OK, "e03c39246abb66eb2421e077d879f13d44bc4f3e92bc4a73483426309644da34"),
]


def golden_digest(text):
    normalized = re.sub(r'"elapsed_s": [0-9.e+-]+', '"elapsed_s": 0', text)
    return hashlib.sha256(normalized.encode()).hexdigest()


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    for name, content in GOLDEN_FILES.items():
        (tmp_path / name).write_text(content)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize(
    "argv,code,digest",
    [pytest.param(*case[1:], id=case[0]) for case in GOLDEN_REPORTS],
)
def test_golden_report_body(golden_dir, argv, code, digest):
    got_code, out = run_cli(*argv)
    assert got_code == code
    assert golden_digest(out) == digest


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty file, expected header 'n=<n> k=<k>'"),
        ("\n  \nn=7\n1,2\n", "line 3: expected header 'n=<n> k=<k>'"),
        ("k=2 n=7\n1,2\n", "line 1: expected header 'n=<n> k=<k>'"),
        ("n=7 k=two\n1,2\n", "line 1: header values must be integers"),
        ("\nn=7 k=9\n", "line 2: k must be in [1, 7] (got 9)"),
        ("q=2\n1 0\n", "line 1: expected header 'q=<q> n=<n>'"),
        ("q=2 n=3 k=1\n1 0 0\n", "line 1: expected header 'q=<q> n=<n>'"),
        ("\nq=2 n=x\n1 0\n", "line 2: header values must be integers"),
        ("q=4 n=3\n1 0 0\n", "line 1: q must be prime (got 4)"),
        ("\n\nq=3 n=0\n", "line 3: n must be >= 1 (got 0)"),
    ],
)
def test_golden_bad_header(golden_dir, capsys, text, message):
    (golden_dir / "bad.txt").write_text(text)
    code, out = run_cli("sunflower", "bad.txt", "--t", "1", "--u", "2")
    assert code == EXIT_INPUT
    assert out == ""
    assert capsys.readouterr().err == f"error: bad.txt: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-lemmas", "sweep.json", "--workers", "2"),
        ("search", "sets", "--n", "4", "--k", "2", "--kp", "2", "--l", "1", "--t", "1", "--workers", "1"),
    ],
)
def test_workers_is_a_usage_error(golden_dir, argv):
    code, out = run_cli(*argv)
    assert code == EXIT_INPUT
    assert out == ""
