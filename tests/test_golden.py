"""Golden output bytes: fixed-seed CLI runs reproduce pinned sha256 digests.

Every command runs in process through `cliquelab.cli.main`, from a scratch
directory and with relative paths, because each output embeds its run
configuration and the paths in it.  A verify output also embeds numpy's
version (through GENERATOR_ID), so the digests hold only for the numpy
version they were recorded with.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from cliquelab.cli import main

RECORDED_NUMPY = "2.4.6"

# (command line, outputs it writes); "stdout:<name>" is what it prints.
COMMANDS = [
    ("gen er --n 60 --seed 7 --out er.txt", ["er.txt"]),
    ("gen planted --n 60 --kappa 20 --seed 7 --out planted.txt", ["planted.txt"]),
    (
        "rgp --in planted.txt --ell 2 --N 2000 --seed 7 --check"
        " --out-graph prod.txt --out-family fam.txt",
        ["prod.txt", "fam.txt"],
    ),
    ("solve max-clique --in prod.txt --out clique.json", ["clique.json"]),
    (
        "solve max-clique --in prod.txt --budget-ms 60000 --out clique_budget.json",
        ["clique_budget.json"],
    ),
    (
        "verify soundness --n 60 --ell 2 --N 200 --k 4 --trials 4 --seed 7"
        " --threads 2 --out-json sound.json --out-csv sound.csv",
        ["sound.json", "sound.csv"],
    ),
    (
        "verify completeness --n 60 --delta 1/2 --ell 2 --N 200 --k 4 --trials 20"
        " --seed 7 --out-json comp.json --out-csv comp.csv",
        ["comp.json", "comp.csv"],
    ),
    (
        "verify disperser --n 60 --ell 2 --N 200 --delta 1/2 --max-set-size 3"
        " --trials 2 --seed 7 --out-json disp.json --out-csv disp.csv",
        ["disp.json", "disp.csv"],
    ),
    (
        "verify lemma44 --kappa 32 --t 2 --ell 1 --trials 10 --seed 7"
        " --out-json l44.json --out-csv l44.csv",
        ["l44.json", "l44.csv"],
    ),
    (
        "verify averaging --n 10 --s-size 8 --k 3 --trials 6 --seed 7"
        " --out-json avg.json --out-csv avg.csv",
        ["avg.json", "avg.csv"],
    ),
    (
        "verify averaging --n 10 --s-size 8 --k 3 --trials 6 --seed 8",
        ["stdout:avg"],
    ),
    (
        "report avg.csv comp.csv --out-summary summary.json --out-long long.csv",
        ["summary.json", "long.csv"],
    ),
    ("gen er --n 10 --p 3/4 --seed 3 --out small.txt", ["small.txt"]),
    (
        "reduce skes-to-steiner-forest --in small.txt --k 3"
        " --out-instance st.txt --out-cert st_cert.json",
        ["st.txt", "st_cert.json"],
    ),
    ("solve steiner-k-forest --in st.txt --out st_sol.json", ["st_sol.json"]),
    (
        "reduce skes-to-dsn --in small.txt --k 3 --seed 3"
        " --out-instance dsn.txt --out-cert dsn_cert.json",
        ["dsn.txt", "dsn_cert.json"],
    ),
    ("solve dsn --in dsn.txt --out dsn_sol.json", ["dsn_sol.json"]),
    (
        "reduce biclique-to-dksh --in small.txt --k 6 --ell 2"
        " --out-instance hyp.txt --out-cert hyp_cert.json",
        ["hyp.txt", "hyp_cert.json"],
    ),
    (
        "solve densest-k-subhypergraph --in hyp.txt --k 6 --out hyp_sol.json",
        ["hyp_sol.json"],
    ),
    (
        "reduce dks-via-skes --in small.txt --k 3 --solution 0,1,2"
        " --out-instance via.json",
        ["via.json"],
    ),
    (
        "reduce dks-from-biclique --in small.txt --k 4 --side-a 0,2 --side-b 5,6",
        ["stdout:from_biclique"],
    ),
    ("gen pattern --k 3 --seed 3 --out pat.txt", ["pat.txt"]),
    (
        "reduce dks-to-induced-pattern --in small.txt --k 3 --seed 3"
        " --pattern pat.txt --out-instance host.txt --out-cert host_cert.json",
        ["host.txt", "host_cert.json"],
    ),
    (
        "solve detect-pattern --in host.txt --pattern pat.txt --induced",
        ["stdout:detect"],
    ),
]

GOLDEN = {
    "er.txt": "d1e2fb294c0a85f0ce95f14eb3ef0825ec633deb28243ccc0e296f2767c92e50",
    "planted.txt": "b02241d28bcdcc76afeb009803db449d46d59ab05fb003478fe326e7c879000e",
    "prod.txt": "620e43254f5974a91f1ab4d634caff33c8abec379cdb25cb43920e921a5cb675",
    "fam.txt": "bc5b65c63f24210bd2dc9db6ed2c4292f7c37ff53ec1cb0d9d88b93ac7cab9f6",
    "clique.json": "ae99217fad79220cd780044731438666fc24919657a42793c7454476bdb13b3f",
    "clique_budget.json": "fa040c4bc963f1ae13da247b705755aaf0efedc1bbd82fd5431c520bac27846c",
    "sound.json": "18873db666e8027294a05d5f248c1eb3551d25552beb5402b2938e18612b9e3c",
    "sound.csv": "c39d79113cd5e9f4b3fddb05b4ebc8e42888e37ed7125bbb70563ebda382fc7b",
    "comp.json": "88ba63b440713498377c14a9b8cdf5f930314464cd9a7066c1860bc372620a1e",
    "comp.csv": "b9449117ac5d1713a4b828ceb318a2d535697d94ce95fa6e59b91db8b1a694e8",
    "disp.json": "55622ab459d330446235cc3bc0a735f022be51c0cf043f00fe26e891d97cbfde",
    "disp.csv": "445710ff9e911e8ae08b7e8c06643b9d93cee53a0259b7bec458242cfd79c3e1",
    "l44.json": "4eccd69798cccd5ff16d461c7ffa92c6bb3795b47561a0567f7336f02473536c",
    "l44.csv": "fecb2ab1cf1337eb687c0c8dbc1348b1687436db7ec2cdd4c7d4f9dcd8cbfe53",
    "avg.json": "cf3c21d18ae1674f5c0cbbe83b66c482da9f74fb48e04f0c0adfc83f6cc3406a",
    "avg.csv": "837895f0557150e02d7353fd94241855cd4f656343e0a4623d917f1e7ffd0be9",
    "stdout:avg": "9e3febe7c5cb92111ddb88bc30c2f543aae7ec91b32269d7775c45fd50a356de",
    "summary.json": "2f9c26825858813ce2788b298f5d9fc0ea1f3d18592b72bd9b91d4fc15daf3f5",
    "long.csv": "5e49dd4f1e4c87ea0efbb9ef2d53d7da30f946796cd1005ca6b86bd9af3f5429",
    "small.txt": "fafbff6d8ff87dad8f3028a782ed018d1c5e545a85b395c60a10d7ca897a4430",
    "st.txt": "b223df7237c9509bfb348ef8b400e947db0dd351fa6f3c26c6402cf59216b644",
    "st_cert.json": "93ec728d7da62a1e7135b529140bc00574d43fc814e7fb8638dd304763df7cf0",
    "st_sol.json": "1c4a43cf00a16351a7390f25d4304eadf105d1d5632d17d819c235e2b432e8af",
    "dsn.txt": "53ca50a6ab5d7945902072fff467c03828d5bcad3fd1a5620a03275e2b71e354",
    "dsn_cert.json": "abb2f7fdb705eec61c4c916e77f223eabfa81fa2057f34044558f33f5c1c3e55",
    "dsn_sol.json": "5a9ab3d995d5b9359d1d9c58618b39d2ad7289859e9511f3806d042d54c46b6b",
    "hyp.txt": "03c61b3ea54fe71831fb62466888e55384069ba379c3a60b0bdd08d3b0b9eeb9",
    "hyp_cert.json": "d1f00f3f4a91ad88a13bf1742da447ffeb4bfba7ce91091a49ffb03f3a7a305f",
    "hyp_sol.json": "641e4175043ea80b564a5c7f274ef6641114816ec31b3d78c32d5b6dd158e99a",
    "via.json": "66c65f17e549038a675cba5ccf4cbb1c814c5764bf79a4ffb48ddf841c574f96",
    "stdout:from_biclique": "d4ec08c782f3aa8cf9385f54990848d0d3b3e38c56364b47d8749b740f729740",
    "pat.txt": "e6e6a50e79446a1b68e306bf16d2346d2f26d2c7dc9411304d0ae8fcce9fb0de",
    "host.txt": "397a2adfc2471ac0b3946961e3e9e794c60d7b13396bb1cc94d239bade55f0e9",
    "host_cert.json": "4d390394745a2c9f5d03a9768dc5faffa045a38a0747d1e85431064e422aff30",
    "stdout:detect": "346f0c70075be80005ad5233d3842184b78e4b77d049fe72cf3c05d4e54832eb",
}


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"digests embed numpy's version and were recorded with {RECORDED_NUMPY}",
)
def test_golden_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CLIQUELAB_CAP", raising=False)
    got = {}
    for argv, outputs in COMMANDS:
        assert main(argv.split()) == 0, argv
        printed = capsys.readouterr().out
        for name in outputs:
            if name.startswith("stdout:"):
                data = printed.encode()
            else:
                data = (tmp_path / name).read_bytes()
            got[name] = hashlib.sha256(data).hexdigest()
    assert got == GOLDEN
