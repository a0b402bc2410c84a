"""Byte-for-byte goldens of ``helly gen``, and a differential test of the
generators against the ``randint`` and ``Fraction`` ones they replaced.

Each case is one ``gen`` command line; the golden is the sha256 of what
it prints. The grid covers every kind, empty instances (n = 0), one
unknown (k = 1) and large draws. The hashes were recorded from the
``randint`` and ``Fraction`` generators, so an instance that any seed
made before is made again, byte for byte.
"""

import contextlib
import hashlib
import io

import pytest

from helly.cli import _GENERATORS, main
from helly.instances import (
    dumps_disks,
    dumps_linear,
    gen_consistent_linear,
    gen_helly_disks,
    gen_random_disks,
    gen_random_linear,
)
from helpers import (
    reference_gen_consistent_linear,
    reference_gen_helly_disks,
    reference_gen_random_disks,
    reference_gen_random_linear,
)

# sha256 of the standard output of ``helly gen <case>``
GOLDEN = {
    "tetrahedron": "519a3b77ab8891feecc258f9a2edeb5bbdad13c605798129e1fd0847c9d51f2e",
    "random-linear --n 0 --k 1 --seed 0": "f760ff5c6fc521f2090f0c15e024f0be5f2d654b771a22253d0c90492f1a115d",
    "random-linear --n 0 --k 1 --seed 7": "f760ff5c6fc521f2090f0c15e024f0be5f2d654b771a22253d0c90492f1a115d",
    "random-linear --n 0 --k 1 --seed 1099511627779": "f760ff5c6fc521f2090f0c15e024f0be5f2d654b771a22253d0c90492f1a115d",
    "random-linear --n 0 --k 3 --seed 0": "008355e9762cfdb4942f410d077a11c3a485b62a085e2a363b97f1f744e84edf",
    "random-linear --n 0 --k 3 --seed 7": "008355e9762cfdb4942f410d077a11c3a485b62a085e2a363b97f1f744e84edf",
    "random-linear --n 0 --k 3 --seed 1099511627779": "008355e9762cfdb4942f410d077a11c3a485b62a085e2a363b97f1f744e84edf",
    "random-linear --n 0 --k 7 --seed 0": "008b57d933262d41dfa9d55cfb4ab80c2aca648eef395a0de8e1467fae9d786b",
    "random-linear --n 0 --k 7 --seed 7": "008b57d933262d41dfa9d55cfb4ab80c2aca648eef395a0de8e1467fae9d786b",
    "random-linear --n 0 --k 7 --seed 1099511627779": "008b57d933262d41dfa9d55cfb4ab80c2aca648eef395a0de8e1467fae9d786b",
    "random-linear --n 1 --k 1 --seed 0": "b26570081e7439c10ac0df625327125bc6256932353a90488572dc61173b0d58",
    "random-linear --n 1 --k 1 --seed 7": "6126900061a4d165a5cffc124957ec56b9c7889509a8a9d86972030b8733074e",
    "random-linear --n 1 --k 1 --seed 1099511627779": "51fec398a51db32250abb424c8216531266f2459784416e502d20112ec732660",
    "random-linear --n 1 --k 3 --seed 0": "fcae5ca4a0912fd1f3ad721d18c4468567a785a68f9e8970025078990135ab26",
    "random-linear --n 1 --k 3 --seed 7": "70c9d29766478927513aa3bc371ece8d1bdc99c8f943bfb6ec8fd8da97ee51c2",
    "random-linear --n 1 --k 3 --seed 1099511627779": "d1233b39c4cc63bba044201ca4e010de0974c510c08279175ee11013de34ced8",
    "random-linear --n 1 --k 7 --seed 0": "619fd34b3b8a35bebed2c258dd67acf0d284223f721d24080a06714c43002e12",
    "random-linear --n 1 --k 7 --seed 7": "9fcecc44bcb5e721eaa4543e96390225c92758895d7b0062172c88dbf4c854fb",
    "random-linear --n 1 --k 7 --seed 1099511627779": "649c616aa18043aeaf0855c5b67a5fee76ba20f51410243b17e2643221f2cf3c",
    "random-linear --n 5 --k 1 --seed 0": "939ef408a16d246a3228544988a583db4ec12f3f711a3fe26b8fc775b5203cab",
    "random-linear --n 5 --k 1 --seed 7": "4bbd541f4b9be92823fbfe30dd55cf14e739e58802af5d742933a5ff1b2e5cc9",
    "random-linear --n 5 --k 1 --seed 1099511627779": "7b013685bd46afee63a22026853aba9a2e3fac3871bf0f396c3716de783cc7b1",
    "random-linear --n 5 --k 3 --seed 0": "e4025f992e1f6131c99db7cdd04c6741af8b1064a12f668fc4e2c74f697ac00d",
    "random-linear --n 5 --k 3 --seed 7": "8752b14ba6ddaf2710b26f7617901f7f76da81c7c67af2bba833bdfe6e2a89f4",
    "random-linear --n 5 --k 3 --seed 1099511627779": "9a32eabc2ec053247784f9912a77d98e09ab39ce05917a9e4950f867ada83e40",
    "random-linear --n 5 --k 7 --seed 0": "fba279efb2c142a893e69bb3a66c1c6bb408672574a1d84ff16f3d232a23bf1f",
    "random-linear --n 5 --k 7 --seed 7": "204a0f91ee22c2cf28e75804f3e9705dad4338bb4caed68f7856964707d0d04d",
    "random-linear --n 5 --k 7 --seed 1099511627779": "d4118063ca77e7e71e77336c074f1129c01e01fbd0faa179b7af55c4796bb814",
    "random-linear --n 22 --k 1 --seed 0": "d304865cbdda541aec61bc51e813780cf735f8a6fb6b779ac52e9da2b53bcd3b",
    "random-linear --n 22 --k 1 --seed 7": "51d1c0993f7da4c83202f6b27add577035b7bfd50f9d02f139ad89bdd18bc620",
    "random-linear --n 22 --k 1 --seed 1099511627779": "668b216e4124a1f39e0646557a99661d763dc6b50117cb79c963bed190766481",
    "random-linear --n 22 --k 3 --seed 0": "3d1325397164de27c135a16e4a1812467b151031521fcead24d342cd04fa4832",
    "random-linear --n 22 --k 3 --seed 7": "cdb419778d26ffc3e0095429019ef82602b9b263183ff9e421a682e60ac45f52",
    "random-linear --n 22 --k 3 --seed 1099511627779": "84a2b8c4d6c2b19b1bde9dd76e423e45ed5717df6ca3bd91c7028cc825344dbf",
    "random-linear --n 22 --k 7 --seed 0": "13d8dd3aea3a5b8a2532137ee331439e160c5c81b9e3f339f5ad9983dca6fcef",
    "random-linear --n 22 --k 7 --seed 7": "2ebef116a7cc8d789db4c615227c0517508ed31f1e1792335e6d148161d01613",
    "random-linear --n 22 --k 7 --seed 1099511627779": "06bf891f4dba35e211e0e7e00fbda23303e31d522d4a8e27e578190790529ba7",
    "random-linear --n 60 --k 1 --seed 0": "9d4e93cff24c585a3d46657e0f2b49ef386ea079816fd0b7229db73574bff22f",
    "random-linear --n 60 --k 1 --seed 7": "8e2ac56983a14f658104729a6d077cc92d520eb793287fa262f677a8dd448437",
    "random-linear --n 60 --k 1 --seed 1099511627779": "5d14997fd56ae8e56ce4f9cd18fdf512a9210ccadc88d374d815a8ee5c78b9d9",
    "random-linear --n 60 --k 3 --seed 0": "ebfdf524ba3a7987c20ab7dd072d4e93d2f55301ed43b9ba01337a5f04c7504d",
    "random-linear --n 60 --k 3 --seed 7": "43379087263d851db5b81d96f29f284b9bdda1be8171212fda62c12995c6d669",
    "random-linear --n 60 --k 3 --seed 1099511627779": "7417c9cb8f77e9f4f5944e8cebc0d9653d969b824f3e2c6677f9f56c1fe1586d",
    "random-linear --n 60 --k 7 --seed 0": "9ca8b2224e3fafb46d4be96dcffcc8ebae1e23b2e474f1a20e6a568f0ca9cc21",
    "random-linear --n 60 --k 7 --seed 7": "906d1d8dda96641dd2d0c7cdb75fe29179b51ae4f88bfb85a4fbb0abeb243392",
    "random-linear --n 60 --k 7 --seed 1099511627779": "e74fc8b5ac85f6b60b798c12fde799ef493b7831fc72e6d4df57319753f1ed63",
    "consistent-linear --n 0 --k 1 --seed 0": "f760ff5c6fc521f2090f0c15e024f0be5f2d654b771a22253d0c90492f1a115d",
    "consistent-linear --n 0 --k 1 --seed 7": "f760ff5c6fc521f2090f0c15e024f0be5f2d654b771a22253d0c90492f1a115d",
    "consistent-linear --n 0 --k 1 --seed 1099511627779": "f760ff5c6fc521f2090f0c15e024f0be5f2d654b771a22253d0c90492f1a115d",
    "consistent-linear --n 0 --k 3 --seed 0": "008355e9762cfdb4942f410d077a11c3a485b62a085e2a363b97f1f744e84edf",
    "consistent-linear --n 0 --k 3 --seed 7": "008355e9762cfdb4942f410d077a11c3a485b62a085e2a363b97f1f744e84edf",
    "consistent-linear --n 0 --k 3 --seed 1099511627779": "008355e9762cfdb4942f410d077a11c3a485b62a085e2a363b97f1f744e84edf",
    "consistent-linear --n 0 --k 7 --seed 0": "008b57d933262d41dfa9d55cfb4ab80c2aca648eef395a0de8e1467fae9d786b",
    "consistent-linear --n 0 --k 7 --seed 7": "008b57d933262d41dfa9d55cfb4ab80c2aca648eef395a0de8e1467fae9d786b",
    "consistent-linear --n 0 --k 7 --seed 1099511627779": "008b57d933262d41dfa9d55cfb4ab80c2aca648eef395a0de8e1467fae9d786b",
    "consistent-linear --n 1 --k 1 --seed 0": "c4a27493e24ccd375f5fb381adbd9a1880eea0c0e94273c936c4033fca51880f",
    "consistent-linear --n 1 --k 1 --seed 7": "568a405ce9ece9cd3419fe426c289874513be28ab512263978c0ff9e43044ad3",
    "consistent-linear --n 1 --k 1 --seed 1099511627779": "c76c2ede7444108c15431811dfbace234504fc6b7db890d3303d0aea564e9fb9",
    "consistent-linear --n 1 --k 3 --seed 0": "851663c885d392f12f9e6d2fba4a34c22368a5b526f105955bae942b1a19c0db",
    "consistent-linear --n 1 --k 3 --seed 7": "f1506656ff5692c7ac8010b0cc6e0c8fba6fa5f11dd400dfe394d2e6f8499d27",
    "consistent-linear --n 1 --k 3 --seed 1099511627779": "2a1c6ab577f044bb57f6ce2e8bbeb76606737831b4229316ed2d01ae12e17b41",
    "consistent-linear --n 1 --k 7 --seed 0": "0999c9ae2c8ca9eb3b76302a2784eb253894f229ca9f03a7f6d44953404f2aa1",
    "consistent-linear --n 1 --k 7 --seed 7": "74ba61130e9c6a2d9fb88fff050a50903e68840fc64389ad96b5c16a5a17f074",
    "consistent-linear --n 1 --k 7 --seed 1099511627779": "71f2464f88f1bec0ee05f707da48f15d15f661048fcaee4e850fde3ac093933f",
    "consistent-linear --n 5 --k 1 --seed 0": "9ced84e95daa666ce6422e564b168104aa2027b8f4adb7900fa42f5451cf9121",
    "consistent-linear --n 5 --k 1 --seed 7": "a9702767a0707ab8a8a6d5b20e3d270da70a6f8670f00ae1d3cc1927c03e7da7",
    "consistent-linear --n 5 --k 1 --seed 1099511627779": "c9ef4158da9a22092fb07cd30cda3663b8c782af0c1398953bdeeb512313e1e7",
    "consistent-linear --n 5 --k 3 --seed 0": "8be92a0e6999c3227269b31ba450947456c0fc9e130e663243f19528b27e8b99",
    "consistent-linear --n 5 --k 3 --seed 7": "c3a67672408132289cf2fb56998550bc9e1c2657d246f16aa51e5eecaab79ea9",
    "consistent-linear --n 5 --k 3 --seed 1099511627779": "e5be75790545aee98f19fd5dfa897578b148d2cd78d2fb5c72831e28d0f7a50f",
    "consistent-linear --n 5 --k 7 --seed 0": "020cf9d75879ab7a753fc67a3ad8f236155b3a5d8a3927f45779bf73a7e17fa6",
    "consistent-linear --n 5 --k 7 --seed 7": "eae117f75400e9780c03414a604a9affc69a1a259a3a74090ac132942e61c4a7",
    "consistent-linear --n 5 --k 7 --seed 1099511627779": "db0644dba4cf11f18111a28feccdef2ff86a6cc9d0283604328df3f007f40785",
    "consistent-linear --n 22 --k 1 --seed 0": "d57fe493e9cbef9a9c032db89f3ce42317f83b887cedea993dd41b0f85253730",
    "consistent-linear --n 22 --k 1 --seed 7": "7019878444699fbb176241058cc7dda23539a353dd87b91365de3bf6a37c043f",
    "consistent-linear --n 22 --k 1 --seed 1099511627779": "51b5a24f200e44351c70e113e566f0b3a192488bad9199499b9c71312d923950",
    "consistent-linear --n 22 --k 3 --seed 0": "54b1680cb4e17b6e8c4889b8e658b6bb258ce888627a8a49e4182e7d78834d6f",
    "consistent-linear --n 22 --k 3 --seed 7": "66d14315375410a07a4dc45fe3f12ab0fd841b17687efc50b40f912066b8175e",
    "consistent-linear --n 22 --k 3 --seed 1099511627779": "d568cc4d73e76f14a3448a6f95844068a7a5ebebb9cdd9fc72dbdbec7c946763",
    "consistent-linear --n 22 --k 7 --seed 0": "d387128ff603c3df30a849993c2a8cb57b7f4524270fa9ea643cea5358fe1863",
    "consistent-linear --n 22 --k 7 --seed 7": "eaa86623452f1c3e91f2375cf3d4b6c69efc8d8a3fb25701751de340011793ac",
    "consistent-linear --n 22 --k 7 --seed 1099511627779": "ac0ffe27d2b40d9bc4d7f0c62196a486d7d32124eebc26f8b18ad2e240b846ab",
    "consistent-linear --n 60 --k 1 --seed 0": "f3af2cd4157e538bea6891b74217e61673ac02ac03bfba9dee621e00d78bf427",
    "consistent-linear --n 60 --k 1 --seed 7": "c0bb33690a5ab3609027b8038f4c4aed922cebb369536d4c2d3cb7dbcc5a868e",
    "consistent-linear --n 60 --k 1 --seed 1099511627779": "81841cfbb5fe935f84d4a8547a6ba1992d34e70c0f18f3ad95f1e7e3aa41eb4a",
    "consistent-linear --n 60 --k 3 --seed 0": "72fa02077e10c44896f7fa4f636a161f60d16ebf6c4fd5b06ef9b98c798fc7ef",
    "consistent-linear --n 60 --k 3 --seed 7": "3ddf1a955d40d14fb936c210d5647a0fdb1be7a8ea653fa86d2da36105153622",
    "consistent-linear --n 60 --k 3 --seed 1099511627779": "494418c5b21941279077d35b43d34b8ce2f0ed9330dc26b342dd0adcd433b7b8",
    "consistent-linear --n 60 --k 7 --seed 0": "8e685c090f908f7b8698460d289944272313b10f9ca75a4a7778c15de247d006",
    "consistent-linear --n 60 --k 7 --seed 7": "2bb32bcaa844af265721dbc60f09b6a8579992f72d4f0aaf74280959424e32a3",
    "consistent-linear --n 60 --k 7 --seed 1099511627779": "59d067d1b771721f5c208908b692912af373b49cfad2f90140ba8e2351108adb",
    "random-disks --n 0 --seed 0": "ef40f6b973c24149ef60bb6936ef5fc0cc7b1ea9e4fcd234644d88ce9a85795d",
    "random-disks --n 0 --seed 7": "ef40f6b973c24149ef60bb6936ef5fc0cc7b1ea9e4fcd234644d88ce9a85795d",
    "random-disks --n 0 --seed 1099511627779": "ef40f6b973c24149ef60bb6936ef5fc0cc7b1ea9e4fcd234644d88ce9a85795d",
    "random-disks --n 1 --seed 0": "4f950cdabf7df9362ed4475d0638af8ee4b130159b0247dd8594e5b918d3a2a4",
    "random-disks --n 1 --seed 7": "c03ebc6d1097d2dd69c457eb2bae35746b3d9cc4de8cfce6fb6f3c9ebf731362",
    "random-disks --n 1 --seed 1099511627779": "516e5dadfdc4ed309a64a17db506f448cb923f7a6b2f0263ce9fdfc8a4ce80ff",
    "random-disks --n 5 --seed 0": "5dbcbcd33f12d4b2b12c0797b87c5faedeb83ba70659b06072d5b453e55d3c32",
    "random-disks --n 5 --seed 7": "8c546d8d295ba22808c215b0a170d2f6820b3196c0172d1ebc8d9afc108d26c4",
    "random-disks --n 5 --seed 1099511627779": "c54c755d9c3747d6647c3b07bc348ca49d8f34a581ebf583a50a882d9be80ce1",
    "random-disks --n 22 --seed 0": "6c8683f6aa9fb0888859d234a98ed0a2dd3f3dfc5d15198fc466b2239fa0e062",
    "random-disks --n 22 --seed 7": "bd979f17bcec1273ed6a1527c73a8b04b4de9fb040ff495f4b73088f1420be3b",
    "random-disks --n 22 --seed 1099511627779": "a69ad0da41257fd8ec420e3b5e6b3979f51c222161df5caf7fd1934ed59d6532",
    "random-disks --n 60 --seed 0": "fc2066c5d300b1f7a6246db4cb612484d2e14ba77ce48cc8986eb64f8a52694c",
    "random-disks --n 60 --seed 7": "b5a9d25e6463051593ba907ebb7aa69a166336b9e60a45353fc685c78cad8f49",
    "random-disks --n 60 --seed 1099511627779": "a70db16946f48c56d909d4d0c4ec086c7f95e5946259cead3403bcf12dc11767",
    "random-disks --n 200 --seed 0": "784ec5680e520a4ac7dea145b8826bbfd2ecb80ccc1f5c5809a8671e1cefe0d3",
    "random-disks --n 200 --seed 7": "ebee429df0dd5ba00b965cb4f02943f8a18ab93576f0727d5ff8a731c9a2cb41",
    "random-disks --n 200 --seed 1099511627779": "246c2dd735c5664068fc75c0ea9c059afeddc9b1e2c350495f3d10c858483f00",
    "helly-disks --n 0 --seed 0": "ef40f6b973c24149ef60bb6936ef5fc0cc7b1ea9e4fcd234644d88ce9a85795d",
    "helly-disks --n 0 --seed 7": "ef40f6b973c24149ef60bb6936ef5fc0cc7b1ea9e4fcd234644d88ce9a85795d",
    "helly-disks --n 0 --seed 1099511627779": "ef40f6b973c24149ef60bb6936ef5fc0cc7b1ea9e4fcd234644d88ce9a85795d",
    "helly-disks --n 1 --seed 0": "2282244cd1b3fc9194420168ea60343128dc255f1357da6c18409238de6848e2",
    "helly-disks --n 1 --seed 7": "bf152daf54145cc7ff2546e4cc3a2401dad575d85aa46ad41e37bd9fb746d8ba",
    "helly-disks --n 1 --seed 1099511627779": "8fff126d270c11fd372496aa70c6b9420fe80b59b42349757e2958d7ffb3bc13",
    "helly-disks --n 5 --seed 0": "2d4a219098d3dc626fc3ff1f77b2f9608c57ef865e3eef768fefaa447190f9ee",
    "helly-disks --n 5 --seed 7": "a5bfab8cb52c6beb7aad864d4c7cd222af2a452062cb08e39bbfc0e000f2673e",
    "helly-disks --n 5 --seed 1099511627779": "13293d1f8a3674b165c8f2f672c9252c06f072ff7ad2e5fc0c54d9afc1f378a2",
    "helly-disks --n 22 --seed 0": "c2fafd959816115304c43e0174ea66278fd705a7f5e82bcde6edd5dc0b25276f",
    "helly-disks --n 22 --seed 7": "a61a8f29a8a3f48f183b0ff683f648c1f8f2388b012fecfeddf1af10fce0cf84",
    "helly-disks --n 22 --seed 1099511627779": "a467410a978a9b4774aeef8b3404d636e659a7a032db2a31fb021caa7190ea38",
    "helly-disks --n 60 --seed 0": "10e0bac5c5463abe3b97d687676d5d920b66b26dde82cbef9ff2e9f3994c371a",
    "helly-disks --n 60 --seed 7": "31e04f89d8e7bb7733b84a7b1916a8d2660e931e97d9f03557a0449ef4897a9f",
    "helly-disks --n 60 --seed 1099511627779": "af6ecd010b7daa40b7e360c96e0992a3a093fca79bc83d5cdbdfa75bf73a8ae8",
    "helly-disks --n 200 --seed 0": "77bb0f5a915e672de8efcd8e2bd6672b67457a75cffa6675fecb61cbed36a23e",
    "helly-disks --n 200 --seed 7": "bc315a6e66c4b53ed2a11cd8f2672056692983f20790bb7ff95ff3a02cfa22fd",
    "helly-disks --n 200 --seed 1099511627779": "21e2d7cbf6c0a14ca21c71e90a981fd5b6bab9cdbd4806af4cd029a0d5995b01",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_gen_matches_golden(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gen", *case.split()]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[case]


def test_golden_grid_covers_every_kind():
    assert {case.split()[0] for case in GOLDEN} == set(_GENERATORS)


@pytest.mark.parametrize(
    "gen, reference, dumps",
    [
        (gen_random_linear, reference_gen_random_linear, dumps_linear),
        (gen_consistent_linear, reference_gen_consistent_linear, dumps_linear),
    ],
)
def test_linear_generators_match_the_randint_reference(gen, reference, dumps):
    for seed in range(300):
        n, k = seed % 13, 1 + seed % 5
        made, want = gen(n, k, seed), reference(n, k, seed)
        assert made == want and dumps(made) == dumps(want), (n, k, seed)


@pytest.mark.parametrize(
    "gen, reference",
    [(gen_random_disks, reference_gen_random_disks), (gen_helly_disks, reference_gen_helly_disks)],
)
def test_disk_generators_match_the_randint_reference(gen, reference):
    for seed in range(300):
        n = seed % 17
        made, want = gen(n, seed), reference(n, seed)
        assert made == want and dumps_disks(made) == dumps_disks(want), (n, seed)
        assert [(d.X, d.Y, d.R, d.M) for d in made] == [(d.X, d.Y, d.R, d.M) for d in want]
