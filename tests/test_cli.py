import hashlib
import json

import pytest

from palfact.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_len_text(capsys):
    code, out, _ = run_cli(capsys, "len", "lit:abaab")
    assert code == 0
    assert out == "pal=2 lgpal=3 rgpal=2\n"


def test_len_json(capsys):
    code, out, _ = run_cli(capsys, "len", "lit:abaab", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert (doc["pal"], doc["lgpal"], doc["rgpal"]) == (2, 3, 2)


def test_len_rejects_streams(capsys):
    code, _, err = run_cli(capsys, "len", "periodic:ab")
    assert code == 2
    assert "stream" in err


def test_bad_spec_names_token(capsys):
    code, _, err = run_cli(capsys, "len", "bogus:xyz")
    assert code == 2
    assert "bogus:xyz" in err


def test_decompose_json(capsys):
    code, out, _ = run_cli(capsys, "decompose", "lit:aabaab", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal"]["pal"] == 2
    assert doc["minimal"]["decompositions"] == [[[1, 2], [3, 6]], [[1, 5], [6, 6]]]
    assert doc["minimal"]["truncated"] is False


def test_decompose_text_uses_input_notation(capsys):
    code, out, _ = run_cli(capsys, "decompose", "lit:aabaab")
    assert code == 0
    assert "aa . baab" in out and "aabaa . b" in out
    code, out, _ = run_cli(capsys, "decompose", "lit:121312")
    assert code == 0
    assert "1 . 21312" in out
    assert "121 . 3 . 1 . 2" in out  # left greedy, digit notation


def test_profile_csv_first_attainment_row(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "fib", "--horizon", "6000", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,pal,lgpal,rgpal,max_pal,max_lgpal,max_rgpal"
    assert lines[-1] == "m,1,2,9,62,297,1154,5473"
    assert len(lines) == 6002


def test_profile_accepts_finite_words(capsys):
    code, out, _ = run_cli(capsys, "profile", "lit:abaab", "--horizon", "100",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 7  # header, 5 rows, m-row


def test_bounds_text(capsys):
    code, out, _ = run_cli(capsys, "bounds", "periodic:ababa",
                           "--horizon", "1000")
    assert code == 0
    assert "prefix_max=2" in out
    assert "factor_max=3" in out
    assert "((ab)^i a)^w" in out


def test_next_command(capsys):
    code, out, _ = run_cli(capsys, "next", "lit:ab", "--max-len", "8")
    assert code == 0
    assert "aba" in out and "abba" in out


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "occdiff")
    assert code == 0
    assert "[OK] suite occdiff" in out
    assert "[FAIL]" not in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "evperiodic", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["name"] == "evperiodic"
    assert doc["results"][0]["ok"] is True


def test_experiments_json(capsys):
    code, out, _ = run_cli(capsys, "experiments", "occdiff", "multibonacci",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    names = [r["name"] for r in doc["results"]]
    assert names == ["multibonacci", "occdiff"]  # canonical sorted order
    assert all(r["ok"] for r in doc["results"])


def test_experiments_text_with_json_out(tmp_path, capsys):
    target = tmp_path / "exp.json"
    code, out, _ = run_cli(capsys, "experiments", "occdiff",
                           "--out", str(target))
    assert code == 0
    assert "occdiff: ok" in out
    doc = json.loads(target.read_text())
    assert doc["results"][0]["name"] == "occdiff"


def test_experiments_rejects_unknown(capsys):
    code, _, err = run_cli(capsys, "experiments", "oracles")
    assert code == 2
    assert "oracles" in err


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "verify", "oracles", "--seed", "3",
                         "--format", "json")
    _, out2, _ = run_cli(capsys, "verify", "oracles", "--seed", "3",
                         "--format", "json")
    assert out1 == out2  # byte-identical without --timings
    _, out3, _ = run_cli(capsys, "verify", "oracles", "--seed", "3",
                         "--format", "json", "--timings")
    assert "runtime_seconds" in out3 and "runtime_seconds" not in out1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "profile", "fib", "--horizon", "50",
                           "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("n,pal,")


def test_cap_override(capsys):
    code, _, err = run_cli(capsys, "profile", "fib", "--horizon", "200",
                           "--cap", "100")
    assert code == 2
    assert "cap" in err.lower()


# SHA-256 of `profile <spec> --horizon 3000 --format <fmt>` as first released;
# the per-prefix arrays and their layout must not change with the algorithms.
PROFILE_DIGESTS = {
    ("fib", "json"): "a38301efc2c4cef5ff2b329d7bedbd21e340dc1f3be92acfbab044860d911ab0",
    ("fib", "csv"): "65a56dea87c317ae8cdd608a5ea76c6b89cbf7ab53db7314fcfef248983a69b5",
    ("U", "json"): "0f4f5675e582581bb47e68fb0ec8482b19c103502f47b99327cf842816f42fd8",
    ("U", "csv"): "d84e2ad1bd9b709b464b6725c7207a475380413cbc8cafab6d444b878cd83e88",
    ("mbstream", "json"): "9a9e5e3922da98e515c82c218f4061062f020119065300882b7de4648f318152",
    ("mbstream", "csv"): "9d91fbced07b34477a8746a509bb871ef847d7b5582caa3007d140d681368e11",
    ("periodic:aabab", "json"): "ade1bef67b69f5b144aabf5c83f377940d898f60b5947298341bdfd70e421a9a",
    ("periodic:aabab", "csv"): "48b5ef7e231fb18edf28504a42a7728fd590af533cf0a8d9c5dde676d19b6856",
}


@pytest.mark.parametrize("spec,fmt", sorted(PROFILE_DIGESTS))
def test_profile_output_is_pinned(capsys, spec, fmt):
    code, out, _ = run_cli(capsys, "profile", spec, "--horizon", "3000",
                           "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PROFILE_DIGESTS[(spec, fmt)]


def test_profile_labels_ladder_stream(capsys):
    code, out, _ = run_cli(capsys, "profile", "uladderper:2", "--horizon", "50",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["word"] == "uladderper:2"
