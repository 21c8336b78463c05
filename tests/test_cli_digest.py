"""The CLI's accepted invocations, pinned byte for byte.

Each case runs ``treecast`` in-process at a small size with
``--reproducible`` and pins the SHA-256 of its stdout and its exit code;
a ``verify`` case pins its stderr too, which holds the suite's
``[PASS]``/``[FAIL]`` line per gate and its closing status line.
The cases cover every subcommand, a config file supplying each option its
command takes, JSON output, ``--eps`` against ``--p``, ``--M`` against
``--scheme``, an exact ``delta`` from a config, and the sweep's precedence
of flag over grid over config over default.  A change to how arguments are
parsed, merged or echoed that alters any report row fails here.
"""

import contextlib
import hashlib
import io
import json

import pytest

from treecast.cli import main

DESCENT = "WithinDescentMajority{k=2}"
SWEEP_GRID = {"r": 2, "schemes": ["Identity", DESCENT], "eps": [0.1, 0.2], "depths": [2, 4]}

# id -> (argv, config or None, grid or None).  "CONFIG" and "GRID" in argv
# stand for the paths of the config and grid files.
CASES = {
    "critical": (["critical", "--r", "2", "--k", "1..3"], None, None),
    "critical-config": (
        ["critical", "--config", "CONFIG"], {"r": 3, "k": "1,2", "budget": 1000}, None,
    ),
    "critical-config-list-k": (["critical", "--config", "CONFIG"], {"r": 2, "k": [2, 1]}, None),
    "critical-json": (["critical", "--r", "2", "--k", "2", "--format", "json"], None, None),
    "delta-exact-eps": (
        ["delta", "--exact", "--r", "2", "--depth", "4", "--eps", "0.1"], None, None,
    ),
    "delta-exact-p": (["delta", "--exact", "--r", "2", "--depth", "4", "--p", "0.8"], None, None),
    "delta-exact-M": (
        ["delta", "--exact", "--r", "2", "--depth", "6", "--eps", "0.1", "--M", "4"], None, None,
    ),
    "delta-exact-scheme-block": (
        ["delta", "--exact", "--r", "2", "--depth", "6", "--eps", "0.1",
         "--scheme", "BlockMajorityEveryStep{M=4}"], None, None,
    ),
    "delta-exact-config": (
        ["delta", "--config", "CONFIG"],
        {"r": 2, "depth": 4, "eps": 0.1, "exact": True}, None,
    ),
    "delta-exact-config-M": (
        ["delta", "--config", "CONFIG"],
        {"r": 2, "depth": 6, "p": 0.8, "M": 4, "exact": True, "budget": 100}, None,
    ),
    "delta-config-eps-flag-wins": (
        ["delta", "--exact", "--config", "CONFIG", "--eps", "0.1"],
        {"r": 2, "depth": 4, "eps": 0.3}, None,
    ),
    "delta-config-p-flag-wins": (
        ["delta", "--exact", "--config", "CONFIG", "--p", "0.8"],
        {"r": 2, "depth": 4, "eps": 0.3}, None,
    ),
    "delta-mc": (
        ["delta", "--r", "2", "--depth", "4", "--eps", "0.1", "--replicates", "200",
         "--seed", "3"], None, None,
    ),
    "delta-mc-scheme": (
        ["delta", "--r", "2", "--depth", "4", "--p", "0.7", "--scheme", DESCENT,
         "--replicates", "200", "--seed", "7", "--budget", "1000"], None, None,
    ),
    "delta-mc-config": (
        ["delta", "--config", "CONFIG"],
        {"r": 2, "depth": 4, "p": 0.75, "scheme": "WithinDescentMinorityRemoval{k=2}",
         "replicates": 300, "seed": 9, "budget": 1000, "format": "json"}, None,
    ),
    "delta-mc-config-M": (
        ["delta", "--config", "CONFIG"],
        {"r": 2, "depth": 6, "eps": 0.2, "M": 4, "replicates": 100}, None,
    ),
    "delta-mc-defaults": (["delta", "--r", "2", "--depth", "2", "--eps", "0.1"], None, None),
    "eps-k": (["eps-k", "--r", "2", "--k", "1..3", "--eps", "0.2"], None, None),
    "eps-k-p-M": (["eps-k", "--r", "3", "--k", "1,2", "--p", "0.6", "--M", "3"], None, None),
    "eps-k-mc": (
        ["eps-k", "--r", "2", "--k", "1..2", "--eps", "0.2", "--budget", "2",
         "--replicates", "200", "--seed", "4"], None, None,
    ),
    "eps-k-config": (
        ["eps-k", "--config", "CONFIG"],
        {"r": 2, "k": [1, 2], "eps": 0.15, "M": 4, "replicates": 150, "seed": 2,
         "budget": 4}, None,
    ),
    "eps-k-config-p-reproducible": (
        ["eps-k", "--config", "CONFIG"],
        {"r": 2, "k": 2, "p": 0.5, "format": "csv", "reproducible": True}, None,
    ),
    "eps-k-json": (["eps-k", "--r", "2", "--k", "2", "--eps", "0.1", "--format", "json"],
                   None, None),
    "fk-stats": (
        ["fk-stats", "--r", "3", "--p", "0.5", "--k", "1..2", "--samples", "20", "--seed", "1"],
        None, None,
    ),
    "fk-stats-eps-default-seed": (
        ["fk-stats", "--r", "2", "--eps", "0.2", "--k", "2", "--samples", "10"], None, None,
    ),
    "fk-stats-config": (
        ["fk-stats", "--config", "CONFIG"],
        {"r": 2, "p": 0.6, "k": "1..2", "samples": 12, "seed": 8, "format": "json"}, None,
    ),
    "fk-stats-config-eps": (
        ["fk-stats", "--config", "CONFIG"], {"r": 3, "eps": 0.25, "k": 1, "samples": 6}, None,
    ),
    "verify": (["verify", "lemma33"], None, None),
    "verify-seed": (["verify", "lemma51", "--seed", "5"], None, None),
    "verify-json": (["verify", "lemma22", "--format", "json"], None, None),
    "verify-config-format": (["verify", "thm32", "--config", "CONFIG"], {"format": "json"}, None),
    "verify-lemma48": (["verify", "lemma48"], None, None),
    "verify-thm21": (["verify", "thm21"], None, None),
    "verify-fk-moments": (["verify", "fk-moments", "--format", "json"], None, None),
    "sweep": (["sweep", "GRID"], None, {**SWEEP_GRID, "replicates": 200, "seed": 5}),
    "sweep-json": (
        ["sweep", "GRID", "--format", "json"], None, {**SWEEP_GRID, "replicates": 100},
    ),
    "sweep-flag-over-grid-and-config": (
        ["sweep", "GRID", "--config", "CONFIG", "--replicates", "250", "--seed", "7"],
        {"replicates": 300, "seed": 6}, {**SWEEP_GRID, "replicates": 200, "seed": 5},
    ),
    "sweep-grid-over-config": (
        ["sweep", "GRID", "--config", "CONFIG"],
        {"replicates": 300, "seed": 6}, {**SWEEP_GRID, "replicates": 200, "seed": 5},
    ),
    "sweep-config-over-default": (
        ["sweep", "GRID", "--config", "CONFIG"], {"replicates": 150, "seed": 6}, SWEEP_GRID,
    ),
}

# id -> (exit code, SHA-256 of stdout).
PINNED = {
    "critical":
        (0, "6ac63aaab2d6ae0f6dfb8fa041cf0a05849d51fbd65d2845f8834d0d96a85108"),
    "critical-config":
        (0, "c2b906e917d580eb77f6462dddc7da4538208e1b9b2d8d3ffeaf0216089fc582"),
    "critical-config-list-k":
        (0, "adfc058e725b6d1a65d7c381c2f3773ad693fb68f9c0b5c0f0925df6a1d0d350"),
    "critical-json":
        (0, "7b5410b48d9afe4028c78761d724f3dd03ff0c45aba67cdde989e8ff64aac1d1"),
    "delta-exact-eps":
        (0, "fd53365b5c95cc4f0228e4a423c7702a42700613fabd106415d737e789185320"),
    "delta-exact-p":
        (0, "be4dcb8c76252ae060b9a7011b9fe9e4349d885a539e7ad99e2559b8140b639e"),
    "delta-exact-M":
        (0, "6b96035d5ced103ea15969c79f03b0b1bc174338242836e102721e511bc368ed"),
    "delta-exact-scheme-block":
        (0, "6b96035d5ced103ea15969c79f03b0b1bc174338242836e102721e511bc368ed"),
    "delta-exact-config":
        (0, "fd53365b5c95cc4f0228e4a423c7702a42700613fabd106415d737e789185320"),
    "delta-exact-config-M":
        (0, "454ca24e1aa6099a830cae3cced9c048354788709134e4626c8b9eb4d6860335"),
    "delta-config-eps-flag-wins":
        (0, "fd53365b5c95cc4f0228e4a423c7702a42700613fabd106415d737e789185320"),
    "delta-config-p-flag-wins":
        (0, "be4dcb8c76252ae060b9a7011b9fe9e4349d885a539e7ad99e2559b8140b639e"),
    "delta-mc":
        (0, "2591bc6a21eee65a537d6908623cc9512c41fefbfb65b6ea9bab5db8fdae4b83"),
    "delta-mc-scheme":
        (0, "7c72c35a686a786d475b5e212887254a4bcd2dc5281a7d171b907515423125a7"),
    "delta-mc-config":
        (0, "f2f4d7c5ad70ba1247aef1defd8d11496ee5c30cae69ed44b232819eadaf0129"),
    "delta-mc-config-M":
        (0, "67e88450cc586ad65efc0a903ec16e52e0c23aa50e640240f3d8bb64c90c5af8"),
    "delta-mc-defaults":
        (0, "49fffdfa81b274f247eba6d8a24cab483a16d43e9eae62710f0f949580d7fd1e"),
    "eps-k":
        (0, "948b5855f2b52346aedbf79e2e2c96d83c2ee821601904d4e50ceb9ac9127e31"),
    "eps-k-p-M":
        (0, "ee223c546790a4d20e0d1ef8d1d8e6798ab974ababebef2709d7d90a6fe60dd5"),
    "eps-k-mc":
        (0, "8fbff2ec628b9441940d1c266b8642a5e0c3086725ac4cb92a717f00d78906c8"),
    "eps-k-config":
        (0, "3ed61c658ab18b03b83782b7039b0f1380039e01fd64c6a053818bec2589660c"),
    "eps-k-config-p-reproducible":
        (0, "35d41b1399e221db610ea981a68cfdf25f01d5e6fd0e981c41c7af8fccec3305"),
    "eps-k-json":
        (0, "045bb8d9d3594342c836685996ed824c6a0cdc7025febb31dae573ffadc78722"),
    "fk-stats":
        (0, "c77253f4ce202024a73b14c25692fae995ee898c496c2eb8a928fcdac061fe23"),
    "fk-stats-eps-default-seed":
        (0, "5d1dd91d3970f7cff1e79961b65d866a875938be2f5610ab8340b4df24e19f03"),
    "fk-stats-config":
        (0, "ccd96f9c5642bb7208581cdd18bd5947bf0c2160d563f7b0fa9df3b7b6a9425e"),
    "fk-stats-config-eps":
        (0, "b4442f05962e610936b1a3b36e48b3732691db027e722ff0851d63a8fe883743"),
    "verify":
        (0, "84922439df88cc4642dbfe93143bee8808b70510d79893f5d1c054a96260e034"),
    "verify-seed":
        (0, "034b00b30708184ac8d2900665ce3b8fa449e75914550d2272f7dfda39fc7b04"),
    "verify-json":
        (0, "b53735687934dd4535fd0408d9410e66614a166ac48dd67b2a18e6317ceaccf1"),
    "verify-config-format":
        (0, "d487abe450960bb7f54c4297ac250adf9d62ffbfb14f4f8079eb5a4c3f3b13c2"),
    "verify-lemma48":
        (0, "353ebff70f70519caf4ffce6852a5fa1f6e72a850a52b6f9940d9dd2e0199aa2"),
    "verify-thm21":
        (0, "d7eee54de67bc7894baad235c309f08bf9fc9d9e564c8a6a70d62ec5e12d4184"),
    "verify-fk-moments":
        (0, "bcbc164b0e9d2e3c39a5e2bd69de79e0619e0da0da19c1292f0a8f2179c87a01"),
    "sweep":
        (0, "7e5bb096f99e46151fb4030c1763f512cc8d928c0ff9ae61e587b97ef3502d95"),
    "sweep-json":
        (0, "03da5618b19eafb3de73c4f68414751a9d5173920ff3606ce47ba6ad59a427b5"),
    "sweep-flag-over-grid-and-config":
        (0, "c2d58080ecd13cd8a4ab312d90b6eea676abe302312b569d220cfe4816e0e615"),
    "sweep-grid-over-config":
        (0, "7e5bb096f99e46151fb4030c1763f512cc8d928c0ff9ae61e587b97ef3502d95"),
    "sweep-config-over-default":
        (0, "0c1d70556535799f33dae89539595be9f99c6643dbf2529f5247fa4d3a7f6de9"),
}

# verify id -> SHA-256 of stderr.
PINNED_STDERR = {
    "verify": "cb4434f1754d965aad9bab939a96b1ba379355c865160844d29cb264c31e561b",
    "verify-seed": "93b9f0046d9a1b4f4e8f5753e3e11edd6cef68aa107ff33d10d6be128b44ab16",
    "verify-json": "1a1150a1d20fa7465b0223ddceaf2077a9b0966538636d39a873a4f4f944b633",
    "verify-config-format": "41e03122dc23410d1cb47c1b1bec6085f891406485e06ec7a2dbd6791a8261a9",
    "verify-lemma48": "50fee7d395b3638f4a7dc8013cddb3f2ec07a9c483abfcf1064fd161aafda236",
    "verify-thm21": "51d17cdebfa0158e7123487f165c75c69423f65e8898b5327f092234175d56fa",
    "verify-fk-moments": "4566ee9959bc428bae112872817b6b6bc7fcf8cfad8feebf35192ccd3b950398",
}


def run(tmp_path, argv, config, grid):
    paths = {"CONFIG": tmp_path / "config.json", "GRID": tmp_path / "grid.json"}
    for name, content in (("CONFIG", config), ("GRID", grid)):
        if content is not None:
            paths[name].write_text(json.dumps(content))
    argv = [str(paths.get(arg, arg)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--reproducible"])
    return code, *(hashlib.sha256(f.getvalue().encode()).hexdigest() for f in (out, err))


@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_matches_pinned_digest(tmp_path, case):
    code, out, err = run(tmp_path, *CASES[case])
    assert (code, out) == PINNED[case]
    if CASES[case][0][0] == "verify":
        assert err == PINNED_STDERR[case]
