"""Golden stdout of the exact CLI commands.

Each case runs one argv in-process through ``cli.main`` and compares the
SHA-256 of its stdout and its exit code with recorded values. Only commands
whose output is exact are pinned: ``gen`` for the classes whose generator
draws no float (dd, z, b0), the certificate and classification commands,
``probe`` on dominated tensors, which stops at the exact flattening LDL^T,
and ``probe`` on two sums of squares with an indefinite flattening (2x2 and
3x3), whose barrier points round at the first denominator of the ladder.
``probe --trace`` pins the barrier's path to each end it can take: the
early stop (sos33), a final s just below 0 that still rounds to a
certificate (rank1), and suspected infeasibility (Choi's form).

Input files are written from literals and from ``gen`` and ``decompose-dd``
stdout, never with ``-o``, so no path appears in any hashed output. To
re-record after an intended output change, run
``python tests/test_cli_golden.py`` and paste its table over ``GOLDEN``.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from biquad.cli import main

# name -> file content, written first. sos22 is the 2x2 form
# (2 x1 y2 + 2 x2 y1)^2 + (x1 y1 - x1 y2 - x2 y1 - 2 x2 y2)^2, one entry per
# monomial; its flattening is indefinite. sos33 is a sum of nine squares of
# 3x3 bilinear forms with integer coefficients in [-3, 3], the probe
# benchmark's shape, also one entry per monomial and also with an indefinite
# flattening. rank1 is (x1 y1 + x2 y2)^2, whose Gram family holds one PSD
# point, of rank one, so the barrier's s approaches 0 from below. choi is
# Choi's nonnegative 3x3 form, which has no square certificate.
LITERALS = {
    "sos22": """{"m": 2, "n": 2, "entries": [
        {"i": 1, "j": 1, "k": 1, "l": 1, "v": "1"}, {"i": 1, "j": 2, "k": 1, "l": 2, "v": "5"},
        {"i": 2, "j": 1, "k": 2, "l": 1, "v": "5"}, {"i": 2, "j": 2, "k": 2, "l": 2, "v": "4"},
        {"i": 1, "j": 1, "k": 2, "l": 2, "v": "6"}, {"i": 1, "j": 1, "k": 1, "l": 2, "v": "-2"},
        {"i": 1, "j": 1, "k": 2, "l": 1, "v": "-2"}, {"i": 1, "j": 2, "k": 2, "l": 2, "v": "4"},
        {"i": 2, "j": 1, "k": 2, "l": 2, "v": "4"}]}""",
    "sos33": """{"m": 3, "n": 3, "entries": [
        {"i": 1, "j": 1, "k": 1, "l": 1, "v": "33"}, {"i": 1, "j": 1, "k": 1, "l": 2, "v": "2"}, {"i": 1, "j": 1, "k": 2, "l": 1, "v": "28"},
        {"i": 1, "j": 1, "k": 2, "l": 2, "v": "18"}, {"i": 1, "j": 1, "k": 2, "l": 3, "v": "46"}, {"i": 1, "j": 1, "k": 3, "l": 1, "v": "-8"},
        {"i": 1, "j": 1, "k": 3, "l": 2, "v": "-20"}, {"i": 1, "j": 1, "k": 3, "l": 3, "v": "-24"}, {"i": 1, "j": 2, "k": 1, "l": 2, "v": "34"},
        {"i": 1, "j": 2, "k": 2, "l": 2, "v": "18"}, {"i": 1, "j": 2, "k": 2, "l": 3, "v": "42"}, {"i": 1, "j": 2, "k": 3, "l": 2, "v": "8"},
        {"i": 1, "j": 2, "k": 3, "l": 3, "v": "-88"}, {"i": 1, "j": 3, "k": 1, "l": 3, "v": "37"}, {"i": 1, "j": 3, "k": 3, "l": 3, "v": "20"},
        {"i": 2, "j": 1, "k": 2, "l": 1, "v": "48"}, {"i": 2, "j": 1, "k": 2, "l": 2, "v": "-4"}, {"i": 2, "j": 1, "k": 2, "l": 3, "v": "-26"},
        {"i": 2, "j": 1, "k": 3, "l": 1, "v": "22"}, {"i": 2, "j": 1, "k": 3, "l": 2, "v": "-54"}, {"i": 2, "j": 1, "k": 3, "l": 3, "v": "22"},
        {"i": 2, "j": 2, "k": 2, "l": 2, "v": "25"}, {"i": 2, "j": 2, "k": 2, "l": 3, "v": "18"}, {"i": 2, "j": 2, "k": 3, "l": 2, "v": "-16"},
        {"i": 2, "j": 2, "k": 3, "l": 3, "v": "-16"}, {"i": 2, "j": 3, "k": 2, "l": 3, "v": "34"}, {"i": 2, "j": 3, "k": 3, "l": 3, "v": "-48"},
        {"i": 3, "j": 1, "k": 3, "l": 1, "v": "31"}, {"i": 3, "j": 1, "k": 3, "l": 2, "v": "-22"}, {"i": 3, "j": 1, "k": 3, "l": 3, "v": "32"},
        {"i": 3, "j": 2, "k": 3, "l": 2, "v": "47"}, {"i": 3, "j": 2, "k": 3, "l": 3, "v": "-28"}, {"i": 3, "j": 3, "k": 3, "l": 3, "v": "40"}]}""",
    "rank1": """{"m": 2, "n": 2, "entries": [
        {"i": 1, "j": 1, "k": 1, "l": 1, "v": "1"}, {"i": 1, "j": 1, "k": 2, "l": 2, "v": "2"},
        {"i": 2, "j": 2, "k": 2, "l": 2, "v": "1"}]}""",
    "choi": """{"m": 3, "n": 3, "entries": [
        {"i": 1, "j": 1, "k": 1, "l": 1, "v": "1"}, {"i": 2, "j": 2, "k": 2, "l": 2, "v": "1"}, {"i": 3, "j": 3, "k": 3, "l": 3, "v": "1"},
        {"i": 1, "j": 2, "k": 1, "l": 2, "v": "1"}, {"i": 2, "j": 3, "k": 2, "l": 3, "v": "1"}, {"i": 3, "j": 1, "k": 3, "l": 1, "v": "1"},
        {"i": 1, "j": 1, "k": 2, "l": 2, "v": "-2"}, {"i": 2, "j": 2, "k": 3, "l": 3, "v": "-2"}, {"i": 3, "j": 3, "k": 1, "l": 1, "v": "-2"}]}""",
}

# name -> argv producing a file of that name; run in this order, so later
# entries may read earlier files ("{name}" is replaced by the file's path).
FILES = {
    "dd22": ["gen", "--class", "dd", "-m", "2", "-n", "2", "--seed", "1"],
    "dd23": ["gen", "--class", "dd", "-m", "2", "-n", "3", "--seed", "2"],
    "dd33": ["gen", "--class", "dd", "-m", "3", "-n", "3", "--seed", "3"],
    "dd44": ["gen", "--class", "dd", "-m", "4", "-n", "4", "--seed", "7"],
    "z23": ["gen", "--class", "z", "-m", "2", "-n", "3", "--seed", "3"],
    "z33": ["gen", "--class", "z", "-m", "3", "-n", "3", "--seed", "4"],
    "b022": ["gen", "--class", "b0", "-m", "2", "-n", "2", "--seed", "5"],
    "b032": ["gen", "--class", "b0", "-m", "3", "-n", "2", "--seed", "6"],
    "cert22": ["decompose-dd", "{dd22}"],
    "cert33": ["decompose-dd", "{dd33}"],
}

INSIDE = ["-m", "3", "-n", "3", "-a", "1/2", "-b", "1/3", "-c", "1/5"]
OUTSIDE = ["-m", "3", "-n", "3", "-a", "2", "-b", "0", "-c", "0"]
EDGE = ["-m", "2", "-n", "4", "-a", "-1", "-b", "-1/3", "-c", "1/3"]
# the benchmark's 4x4 shape, at an interior point whose four barycentric
# weights (9/140, 43/140, 41/140, 47/140) are all nonzero
INSIDE44 = ["-m", "4", "-n", "4", "-a", "1/5", "-b", "1/7", "-c", "-1/9"]

CASES = {
    **{f"gen-{name}": argv for name, argv in FILES.items() if argv[0] == "gen"},
    "check-dd-dd22": ["check-dd", "{dd22}"],
    "check-dd-dd33": ["check-dd", "{dd33}"],
    "check-dd-z23": ["check-dd", "{z23}"],
    "check-dd-b022": ["check-dd", "{b022}"],
    "decompose-dd-dd22": ["decompose-dd", "{dd22}"],
    "decompose-dd-dd23": ["decompose-dd", "{dd23}"],
    "decompose-dd-z33": ["decompose-dd", "{z33}"],
    "decompose-dd-dd44": ["decompose-dd", "{dd44}"],
    "verify-match-22": ["verify", "{cert22}", "{dd22}"],
    "verify-match-33": ["verify", "{cert33}", "{dd33}"],
    "verify-mismatch": ["verify", "{cert22}", "{b022}"],
    "classify-monic-inside": ["classify-monic", *INSIDE],
    "classify-monic-outside": ["classify-monic", *OUTSIDE],
    "classify-monic-edge": ["classify-monic", *EDGE],
    "decompose-monic-inside": ["decompose-monic", *INSIDE],
    "decompose-monic-outside": ["decompose-monic", *OUTSIDE],
    "decompose-monic-edge": ["decompose-monic", *EDGE],
    "decompose-monic-inside44": ["decompose-monic", *INSIDE44],
    "vertices-22": ["vertices", "-m", "2", "-n", "2"],
    "vertices-34": ["vertices", "-m", "3", "-n", "4"],
    "audit-grid-23": ["audit-grid", "-m", "2", "-n", "3", "--step", "1/2", "--range", "1"],
    "eval-dd22": ["eval", "{dd22}", "-x", "1,-2/3", "-y", "1/2,3"],
    "eval-z23": ["eval", "{z23}", "-x", "-1,1/5", "-y", "1,0,-7/2"],
    "probe-dd22": ["probe", "{dd22}"],
    "probe-dd33": ["probe", "{dd33}"],
    "probe-sos22": ["probe", "{sos22}"],
    "probe-sos33": ["probe", "{sos33}"],
    "probe-trace-sos33": ["probe", "--trace", "{sos33}"],
    "probe-trace-rank1": ["probe", "--trace", "{rank1}"],
    "probe-trace-choi": ["probe", "--trace", "{choi}"],
    "sweep-m_tensor22": ["sweep", "--class", "m_tensor", "-m", "2", "-n", "2", "--trials", "80",
                         "--seed", "909"],
}

# name -> (sha256 of stdout, exit code)
GOLDEN = {
    "audit-grid-23": ("8c5f4de6882cf57cf949c401425241099d534b2a6740d48753405ee5f718ed5c", 0),
    "check-dd-b022": ("0a0214c57c0a470dc4e52bb9462205816db35446beaf6e3c63352651e4083110", 0),
    "check-dd-dd22": ("0a0214c57c0a470dc4e52bb9462205816db35446beaf6e3c63352651e4083110", 0),
    "check-dd-dd33": ("0a0214c57c0a470dc4e52bb9462205816db35446beaf6e3c63352651e4083110", 0),
    "check-dd-z23": ("38502efc98a0f9a8631a36aa7665db05eb6889e0e1f3fbaadd5b68d29cbf3353", 1),
    "classify-monic-edge": ("d00d30ce9d6cfadd9367d88154fdbcbf543a94d5bfdf6ae35f0d4c9dcf2ddfeb", 0),
    "classify-monic-inside": ("ec45134013f6882c9a7e1ebaacf187de3897288abbca9d717503076db8fa44a6", 0),
    "classify-monic-outside": ("da8cf01a60b81107d85d6c26f92b2b69662992caae18fa92b4f4406a930278d1", 1),
    "decompose-dd-dd22": ("a2fd313e470cba7ecc67c95e3c82dd34286bd4c65bd935a975984df85f873dd7", 0),
    "decompose-dd-dd23": ("19d1b8b13d542e41b2c7ea6c365d1263dec88336d3ed74d3ac0689205adcc987", 0),
    "decompose-dd-dd44": ("bcf05d49b21325e7cd639a97e8dfd88a3e67f244ed5ec73c9aafd4512149b33e", 0),
    "decompose-dd-z33": ("d9986977d3667b5e65ba834a5c3554e703acb464c3a3f3f6bcd94b94478c6f99", 1),
    "decompose-monic-edge": ("e5b3ae9cb26b52441e2273cdd20312d20bd97ed0ef96654d7b3137acf40a4c46", 0),
    "decompose-monic-inside": ("ae172054a3fdd0910ae11dee06a139da6ba3e19c2d74d18027f308ac2b8f4b48", 0),
    "decompose-monic-inside44": ("17d94f8b863aeeef0d43da7baf803309da317742be3fe2eacaa3706e34a44e65", 0),
    "decompose-monic-outside": ("7a066d8298f5a2668568c15f12e1c4b94b2a51354223d0c184ef5a6c6437c51b", 1),
    "eval-dd22": ("90a78916a6332cd80625fdb61ec88a2a609e04369cd15d7619c67f302dc97507", 0),
    "eval-z23": ("dfaf7f0a0b8c923827a2b4921067746d7a0965f6d63bbe1746ffca9910ea7d48", 0),
    "gen-b022": ("8ab7f28ee6000a21dfd0d5d601ffe39398db58d07451a32993e81ff4f0fe279b", 0),
    "gen-b032": ("47c91b77d84d2462589194e4a7ac31f0f616bc9213335a2608ef4fe27f0fb1bd", 0),
    "gen-dd22": ("5860da30671e10e350359051d864b630537fccd4f48ca6e1b7c2e88dea4f5a8b", 0),
    "gen-dd23": ("b109aaf9f3aba8d50df1ccfdb88701df8844b8ba14774eec39fee6b54b292c69", 0),
    "gen-dd33": ("389f4aa5f509bf67d3691b20f864780b6d4b8a9c30bcc2b35539034e8c84efd7", 0),
    "gen-dd44": ("49af5e5c90ba033b361f7d0e95890818548fd171f895b31a7e61d084754c63f4", 0),
    "gen-z23": ("ac71a07c57bc5a961f88d767efc2e80e1d1f4ad17092b495cc30562e00f0392a", 0),
    "gen-z33": ("7c91e5a0ded5419190f2e0670145d808e7c8fa1d173d167bc1f3e5934fed619f", 0),
    "probe-dd22": ("a554819320e24dd0caa6771829a1c99f68001d0e088c99dc69f0f5f078225798", 0),
    "probe-dd33": ("50902035f566cac263c256d17b7c4d58866be19ef48b019fc292206b0b767eca", 0),
    "probe-sos22": ("d1eecc053fcf9beea7d42fc5788e587b63e9ef516746fffb737525e4cdf14e29", 0),
    "probe-sos33": ("d9d010fdf1757fbf0dc7298238cb17c40f24b19f17cc62b081fcba1b0c2b39d8", 0),
    "probe-trace-choi": ("03f2d11e59dd773ecde7fc8cef8d891d432c60584b16782c5d3433a0710c6d7d", 1),
    "probe-trace-rank1": ("e25342f84900139fd9355bb660ea2c13cead330c429bb02648614cf080cd57b5", 0),
    "probe-trace-sos33": ("5619d1ba3a6bb02425ace8742741b6aa40a753d155740afdfd5bb01208f84bea", 0),
    "sweep-m_tensor22": ("5c78f585f858f2998be8fcb7b75920e18424af56e7671209846322841f6f6be9", 0),
    "verify-match-22": ("2dc6f13146065ccd2a11894f170a19ad0cb9e5d727b158a3c7aac0918e6018a6", 0),
    "verify-match-33": ("2dc6f13146065ccd2a11894f170a19ad0cb9e5d727b158a3c7aac0918e6018a6", 0),
    "verify-mismatch": ("0a0b5710ef96a6702d5fc7b595a7a96356c8800475b75cc6c0fa54274bb93bb6", 1),
    "vertices-22": ("52d416285123627f23ec66bba034c5d6bd41f58540ab0bf69caf606b3c0291bc", 0),
    "vertices-34": ("c820b3aceeab826fb5a03323352b6071764aed72f783eea942f54ef76f398a4b", 0),
}


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return out.getvalue(), code


def substitute(argv, paths):
    return [a.format(**paths) if a.startswith("{") else a for a in argv]


def write_files(directory):
    paths = {}
    for name, text in LITERALS.items():
        path = directory / f"{name}.json"
        path.write_text(text)
        paths[name] = str(path)
    for name, argv in FILES.items():
        out, code = run(substitute(argv, paths))
        assert code == 0, name
        path = directory / f"{name}.json"
        path.write_text(out)
        paths[name] = str(path)
    return paths


def digest(argv, paths):
    out, code = run(substitute(argv, paths))
    return hashlib.sha256(out.encode()).hexdigest(), code


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_files(tmp_path_factory.mktemp("golden"))


def test_every_case_is_recorded():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_exit_code(name, paths):
    assert digest(CASES[name], paths) == GOLDEN[name]


def strict_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("name", sorted(name for name, argv in CASES.items() if argv[0] != "sweep"))
def test_reports_are_strict_json(name, paths):
    # json.dumps writes inf and nan as Infinity and NaN, which JSON has not
    out, _ = run(substitute(CASES[name], paths))
    json.loads(out, parse_constant=strict_constant)


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        files = write_files(Path(tmp))
        for name in sorted(CASES):
            sha, code = digest(CASES[name], files)
            print(f'    "{name}": ("{sha}", {code}),')
