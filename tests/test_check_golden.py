"""Byte-for-byte goldens of ``disks check``.

Each case is a seeded family and an output format; the golden is the
sha256 of what ``helly disks check`` prints for it, with its exit code.
The text verdict prints a common point to six decimals from a 60-bit
enclosure, and the JSON verdict prints its dyadic enclosure at the
requested precision, so the goldens pin the coordinate views of a
common point and their enclosures bit for bit. The families cover
common points on lens corners and disk bottoms, prime denominators,
tangencies and violating triples.
"""

import contextlib
import hashlib
import io
import random

import pytest

from helly.cli import main
from helly.instances import dumps_disks, gen_helly_disks, gen_random_disks
from helpers import lattice_family, prime_family, ring_family

FAMILIES = {
    **{f"helly-{n}-{seed}": (gen_helly_disks, n, seed) for n in (3, 5, 12, 40) for seed in (0, 7, 1099511627779)},
    **{f"random-{n}-{seed}": (gen_random_disks, n, seed) for n in (3, 5, 12) for seed in (0, 7, 1099511627779)},
    **{f"ring-{n}": (ring_family, n) for n in (3, 9, 20)},
    **{f"prime-{seed}": (lambda seed: prime_family(random.Random(seed), 8, planted=True), seed) for seed in (1, 2, 5)},
    **{
        f"lattice-{den}-{seed}": (lambda den, seed: lattice_family(random.Random(seed), den), den, seed)
        for den, seed in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 5))
    },
}

FORMATS = {
    "text": [],
    "json-0": ["--format", "json", "--precision", "0"],
    "json-53": ["--format", "json", "--precision", "53"],
    "json-200": ["--format", "json", "--precision", "200"],
}

# sha256 of "<exit code>\n<standard output>" of ``helly disks check``
GOLDEN = {
    "helly-3-0 text": "b6ac25e5feee81c616aabd2f51fede3f5c333862f6dfb5b9242c61a6fb656530",
    "helly-3-0 json-0": "531407971b8367f58c0af5d2c2063ce9b08462f67195bc996406cae3bc38d391",
    "helly-3-0 json-53": "28e9713f861f2e4afda3e926665318aa5dda6d66b114ab0099581e7fe62d635a",
    "helly-3-0 json-200": "c51ae7b51ee031b0c4f3dcece740f296c6159a1b73384024a1fbfc8e064d1683",
    "helly-3-7 text": "09d1ea4cefc8629536a2861d602e81a72ca8ec56cd7a41ee0f3859b65f9b6f54",
    "helly-3-7 json-0": "48a0aa9c2ee75e484ad98ba125b4dd22d51b58b274dd88343948514bd9e2d5ed",
    "helly-3-7 json-53": "7fc1d3adee37faac737632925d87034b8ecaa5012f2e8fd14a4f6e6c9f129865",
    "helly-3-7 json-200": "69449b8bf0106a48638c34bbfaa803f868990948781b81262e69abca5035c67b",
    "helly-3-1099511627779 text": "98d101946213a1e5a9b4229efa98d813f020c105dac9386153e44e320c23df25",
    "helly-3-1099511627779 json-0": "1d95bf113efa12028ecac48b2dd0d7a31130c1d8c2ff31da5cb4446c8e207bf7",
    "helly-3-1099511627779 json-53": "f14eb1a46b87e359e89a2a1fcdec3d740eabe892734e7a5b4df38fbb75074abd",
    "helly-3-1099511627779 json-200": "7764df1b7d88ed6a13a5c930820ef044206923f7fffd1941786c5157439e4f92",
    "helly-5-0 text": "b6ac25e5feee81c616aabd2f51fede3f5c333862f6dfb5b9242c61a6fb656530",
    "helly-5-0 json-0": "531407971b8367f58c0af5d2c2063ce9b08462f67195bc996406cae3bc38d391",
    "helly-5-0 json-53": "28e9713f861f2e4afda3e926665318aa5dda6d66b114ab0099581e7fe62d635a",
    "helly-5-0 json-200": "c51ae7b51ee031b0c4f3dcece740f296c6159a1b73384024a1fbfc8e064d1683",
    "helly-5-7 text": "db12ec772dddba3f3e3fffa06bad555077be6c0445e8d17083bb2deaae7f41bc",
    "helly-5-7 json-0": "991a184a9fcddc7e00c1933d0e5a281a2b067450bb91eda0aee93489f33ab450",
    "helly-5-7 json-53": "a1a18cc6ba5b15e2b9e6604f0fa88483c6035629644c8e2f80e62a8efb397d43",
    "helly-5-7 json-200": "dcfe0f2248866d10351b0ff590110005c93e45bbc44fa4f2eb092a0e2ec82a67",
    "helly-5-1099511627779 text": "d5221ae09ede82a9f48b99c5d28415d25f03886804c68474b8159c3f70705d1f",
    "helly-5-1099511627779 json-0": "9e57f258e25930e0699783c9e96fa13b860979c96b36dccd1487c20d81f2ec42",
    "helly-5-1099511627779 json-53": "f6af4744d15ad36787ee0f797b46662f3a058732d3cc107efd55daf36e2ca105",
    "helly-5-1099511627779 json-200": "8d1d7d52c88dc7bc8cb31af4182e51bb5baf06bb7752987f58410e8763344db0",
    "helly-12-0 text": "b6ac25e5feee81c616aabd2f51fede3f5c333862f6dfb5b9242c61a6fb656530",
    "helly-12-0 json-0": "531407971b8367f58c0af5d2c2063ce9b08462f67195bc996406cae3bc38d391",
    "helly-12-0 json-53": "28e9713f861f2e4afda3e926665318aa5dda6d66b114ab0099581e7fe62d635a",
    "helly-12-0 json-200": "c51ae7b51ee031b0c4f3dcece740f296c6159a1b73384024a1fbfc8e064d1683",
    "helly-12-7 text": "60881d48f935cc93946a73a2b3d71c2043ef6a97dde920701f9208f074b29204",
    "helly-12-7 json-0": "217acdc855f18c96a3a5193617ea4878248d0643e29de89d17674f34a507ab1d",
    "helly-12-7 json-53": "e10c6a2abaa323bbf5c452609fd399d660a5a8e9f96d4e0573971e393c664955",
    "helly-12-7 json-200": "30185203b0838c3de8388704b780aa55d2cd07eaddfad118e163fa59cbac9934",
    "helly-12-1099511627779 text": "a66d2d64cf8ddb692a99be1cefc1cdfd33e6cbdd210ac6d1cc97c66c5306c524",
    "helly-12-1099511627779 json-0": "4e78e6ddd425c6d43418fd2e7be588b545412067f42722d5d69ad2ae2280349d",
    "helly-12-1099511627779 json-53": "836bb7ccfe0fb0a3db875e6e3f4c20e66bf8a29dcf7bad33ad5aee5269efcb2a",
    "helly-12-1099511627779 json-200": "554abaf4807a45ba9b937324c64deffd25d26437667b5a7925c2fa1718e57625",
    "helly-40-0 text": "59616661d632f3762c00ca41093693eaaf29feb5f7fd0fcfd58cfe407afd4ade",
    "helly-40-0 json-0": "9aaf19e8a6c048189f8fa9f35d5a74c7c14241a1a337758dca9702769dbe0076",
    "helly-40-0 json-53": "7bbca2d10a94275f6f04f6844aaf97c2997274bc812d80a2c595f81942693403",
    "helly-40-0 json-200": "a161ddd73eab84df34e794aef6179ebce398c0e65ec5424c5eca41ea07f3caaf",
    "helly-40-7 text": "60881d48f935cc93946a73a2b3d71c2043ef6a97dde920701f9208f074b29204",
    "helly-40-7 json-0": "217acdc855f18c96a3a5193617ea4878248d0643e29de89d17674f34a507ab1d",
    "helly-40-7 json-53": "e10c6a2abaa323bbf5c452609fd399d660a5a8e9f96d4e0573971e393c664955",
    "helly-40-7 json-200": "30185203b0838c3de8388704b780aa55d2cd07eaddfad118e163fa59cbac9934",
    "helly-40-1099511627779 text": "e8b99237df7f5b7dea76b62e9921ea5ca5f984a04250996ea36894939e5e34ed",
    "helly-40-1099511627779 json-0": "eda9f171fbda2bd18848546db7055f8c2ee88e32d236dbaccc86dd844970b76e",
    "helly-40-1099511627779 json-53": "816537dfb2a8d5df82fb85e4b4545d370b84d61cfd1f18a5d670bb12f69ab6c6",
    "helly-40-1099511627779 json-200": "4be901a2357af33cb53d3cd1fc55d91e1b1a00e093033f089b6d7dd4e31de916",
    "random-3-0 text": "8097478cc5eb8931902573ea25bbab87b158d2e4adce091901d3d952918cb38c",
    "random-3-0 json-0": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-3-0 json-53": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-3-0 json-200": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-3-7 text": "8097478cc5eb8931902573ea25bbab87b158d2e4adce091901d3d952918cb38c",
    "random-3-7 json-0": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-3-7 json-53": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-3-7 json-200": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-3-1099511627779 text": "5af522b228a7b870781a8dd5850fb1c647475d61885d341f636b7221cff92f9c",
    "random-3-1099511627779 json-0": "212b210a44186889130a5bffc308e946b4ad805e7ed9c48898eb8c243d0f2792",
    "random-3-1099511627779 json-53": "2005f9c6daed46e4d89e24f76bfab6999237a03c2ab5906a17b3b449584a78ed",
    "random-3-1099511627779 json-200": "258f85ceefb5798c986d8c2713a6dfffac54196d86a2b9e5bfc7f71df03f4339",
    "random-5-0 text": "8097478cc5eb8931902573ea25bbab87b158d2e4adce091901d3d952918cb38c",
    "random-5-0 json-0": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-5-0 json-53": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-5-0 json-200": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-5-7 text": "8097478cc5eb8931902573ea25bbab87b158d2e4adce091901d3d952918cb38c",
    "random-5-7 json-0": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-5-7 json-53": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-5-7 json-200": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-5-1099511627779 text": "0a5160fb87a135e8926f5e881826937cd5ea4c726907e429d66ded99d0a1649e",
    "random-5-1099511627779 json-0": "2a6d66b810a6e701cf47b19dc6006f446ea27be888325ca025562d9a0dd870a3",
    "random-5-1099511627779 json-53": "2a6d66b810a6e701cf47b19dc6006f446ea27be888325ca025562d9a0dd870a3",
    "random-5-1099511627779 json-200": "2a6d66b810a6e701cf47b19dc6006f446ea27be888325ca025562d9a0dd870a3",
    "random-12-0 text": "8097478cc5eb8931902573ea25bbab87b158d2e4adce091901d3d952918cb38c",
    "random-12-0 json-0": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-12-0 json-53": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-12-0 json-200": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-12-7 text": "8097478cc5eb8931902573ea25bbab87b158d2e4adce091901d3d952918cb38c",
    "random-12-7 json-0": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-12-7 json-53": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-12-7 json-200": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "random-12-1099511627779 text": "0a5160fb87a135e8926f5e881826937cd5ea4c726907e429d66ded99d0a1649e",
    "random-12-1099511627779 json-0": "2a6d66b810a6e701cf47b19dc6006f446ea27be888325ca025562d9a0dd870a3",
    "random-12-1099511627779 json-53": "2a6d66b810a6e701cf47b19dc6006f446ea27be888325ca025562d9a0dd870a3",
    "random-12-1099511627779 json-200": "2a6d66b810a6e701cf47b19dc6006f446ea27be888325ca025562d9a0dd870a3",
    "ring-3 text": "61f3d6f039cae1bc8be5fa20661dac7301620835b94698b8936e3ed3e0fd4aca",
    "ring-3 json-0": "2764813c8e977bd09f4fede03bade217a7d9866376aefdb78c0039f282b5f207",
    "ring-3 json-53": "743a532e78840abb87811731c989428c1f4018d0c0aa71656c446b85b83cc8db",
    "ring-3 json-200": "b3048670dcd99e58386ed09a92c59cbecf5f9260f97a576ace08dd935bdf2e87",
    "ring-9 text": "df4cf5aec0067bb85e124120663e6d9cb138bfb7e63f6fd4802326ffb106601a",
    "ring-9 json-0": "436fed133d6df618f2aeb506030d09b16b5050748bbbb31851a3a55e0043e0cf",
    "ring-9 json-53": "0b41743460e3f54ace24deafc0731fdd0641e05d75fe46733a86491d0a8c7283",
    "ring-9 json-200": "e0e5236d92b762749d1489ded6b945f32421738ff05ea6f088227648ec528207",
    "ring-20 text": "2306eb83fbb13da6e1546d3dff914978561ea103e5d90dbc9a3f46175a36d472",
    "ring-20 json-0": "5d8a92bbba275602a05f74a3e2e22b87e42a527979e4f20a261faba2b528b628",
    "ring-20 json-53": "db3f23a479721213718121c6e30c85c9eb36abbe78b15a3db13f05e64cd430db",
    "ring-20 json-200": "0bc63d9c5c2d46df82a625622964053cacae29fc1498db99c0191e19d1b451c9",
    "prime-1 text": "a94e19c125422775d6d8e53f70bbc0058e853cb1a402b02f8bfda289834690f3",
    "prime-1 json-0": "15b8711f2d74ad27de86b9120c63efc55f151e6e220c6db4728d25b7c6882b54",
    "prime-1 json-53": "0228045fd502c52a097449c6c6b78b97bd4c9ac4e326f4912f9044918415594f",
    "prime-1 json-200": "e92ee89534e2c2e4c29431687348ae41c354507435f9811aa93e4d74204f849b",
    "prime-2 text": "a423dfc9895edeeb427d6929bd903107f106528e4a50bdf3e4b8f59df240fc30",
    "prime-2 json-0": "d3df9da51aa5501036b1e52171246c449262751eed3a0d56e9bd7173bdb7c13d",
    "prime-2 json-53": "512448c1994172985b489ec749398396e22de4278349bab198ba6f68e9e3ad4e",
    "prime-2 json-200": "3b96dae78439347229be4a1a976a84b4c65123da3e9f843c4af3e4a2cc9f948c",
    "prime-5 text": "8f1fef5d22e63488c5d2e903c519181d34bfbb098f4b6a3e92f460afa10db52d",
    "prime-5 json-0": "c2b6b80e549299bfd95c5374710ec5094497251c79e95d652043c6481b735734",
    "prime-5 json-53": "e56221618a08c1fb951592eff8719e737948ac8c736fb79576839b455fff650b",
    "prime-5 json-200": "9eeb796a36afc3f286e5e64a302223117f92549671c8389ea90c5d6dcd9a5529",
    "lattice-2-3 text": "761512bf425347291a8ccf85504f1649ce6de013d55c737234044482ec8d9fbc",
    "lattice-2-3 json-0": "c3298e6c5cb51a3461bbd9332050fe8684058ab756b166ec1fb9b88956a441f3",
    "lattice-2-3 json-53": "412974eb79000286974085a91331199d2aa9de5346d62d542dd2e6ccd10ec07a",
    "lattice-2-3 json-200": "6456cc33bf06b487014c0221355f277be3fe0bc7d5550bca07f6db64c2493b55",
    "lattice-2-4 text": "0874e32906b3cfcbe601686ff4750928953a6286ebfdc872412fcb5a42176af3",
    "lattice-2-4 json-0": "69cd39a74fa4f7d7cbce9b47f9a0e3be9c0d6cdbf2f73039bdaa236714dc30b3",
    "lattice-2-4 json-53": "2a87ea70ae27c3d731e1041638b6d07c4aea99072806c8f0906be2b0da747af4",
    "lattice-2-4 json-200": "0f20b15f6ae26e6410cccf1e669d24410df46fc3728e7a6af04460362bdf68fe",
    "lattice-2-5 text": "143fbb7ea3d0a31a65b0915f01e05634410e6f5ceb962f9c888499ce3671bb0e",
    "lattice-2-5 json-0": "2253c195fd4a74ba6d5ee058eac4d07c654a0f478f52cb0b0a10ef8b789b310a",
    "lattice-2-5 json-53": "2253c195fd4a74ba6d5ee058eac4d07c654a0f478f52cb0b0a10ef8b789b310a",
    "lattice-2-5 json-200": "2253c195fd4a74ba6d5ee058eac4d07c654a0f478f52cb0b0a10ef8b789b310a",
    "lattice-2-6 text": "8097478cc5eb8931902573ea25bbab87b158d2e4adce091901d3d952918cb38c",
    "lattice-2-6 json-0": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "lattice-2-6 json-53": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "lattice-2-6 json-200": "361d8431ba7d43b6d6865debb64a4ab6fbde7cce639c23a38774f06f288c3454",
    "lattice-3-1 text": "b8e20571d5908d58a67e1fc481ab20753d8e04a630152c94dcc35fd666945f6a",
    "lattice-3-1 json-0": "3408df8d40452640b46a5bc22b940301b3fd9a917cdf41d3e3c4cbdcc92103ef",
    "lattice-3-1 json-53": "18d4c184b79aeec8082ac8e73b3f7752145b3ee59cad87eb50d286e17607ebeb",
    "lattice-3-1 json-200": "22d7417f19ecedc8efabe28bbebc4a037790a204c629241f642aa78946899738",
    "lattice-3-5 text": "84f98a3fa3583d654ea6226348ed6cfc6355b136c9df38b2ff5dc430f654d4c1",
    "lattice-3-5 json-0": "f32381596007d91857cb4d6ce38827f61087230d3d7d800634a16673ed690d6a",
    "lattice-3-5 json-53": "90606beaec005419e12d2a23d342b138cbdf0bb5981b4f5bb588a418dea033e6",
    "lattice-3-5 json-200": "fb71a01a2265f03f00bc79644b6b8d911d1839ce08c49ebea37fe13597978c26",
}


def _check_output(name: str, fmt: str, tmp_path) -> str:
    build, *args = FAMILIES[name]
    path = tmp_path / "family.json"
    path.write_text(dumps_disks(build(*args)), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["disks", "check", str(path), *FORMATS[fmt]])
    return f"{code}\n{out.getvalue()}"


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_disks_check_matches_golden(case, tmp_path):
    name, fmt = case.split()
    assert hashlib.sha256(_check_output(name, fmt, tmp_path).encode()).hexdigest() == GOLDEN[case]


def test_golden_grid_covers_every_case_and_both_verdicts(tmp_path):
    assert set(GOLDEN) == {f"{name} {fmt}" for name in FAMILIES for fmt in FORMATS}
    codes = {_check_output(name, "text", tmp_path)[0] for name in FAMILIES}
    assert codes == {"0", "1"}
