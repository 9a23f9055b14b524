"""Byte-identity table for the command line.

Each row is one invocation, its exit status and the SHA-256 of its stdout.
The table was generated from the command line as it stood before each
subcommand learned to render only the format it is asked for, so it pins
that rendering to the earlier bytes: every subcommand in text and
structured format, with and without --limit where the subcommand takes
it, one failing identity (the neighbors oracle) and one usage error.
The rows for n = 8 and 10 (grl on the 10-path, neighbors on a 10-vertex
table with a cycle, graceful on a 10-vertex tree, conjecture --n 8) were
added later, generated from the command line as it stood before the
graceful search and the witness search became one labeling search.
The rows for genfun --which p --n 9, tdmtt --n 6, and whitty --n 6
(symbolic and seeded) were added after that, generated from the command
line as it stood before the determinant was expanded row by row over
column sets, so they pin the determinant at its working sizes.
The rows for genfun --which p --n 10 and coeff --which p on the graceful
sequence 0,1,...,10 were generated from the command line as it stood
before P was split along the reversal symmetry into two half-size
determinants.
The rows for props --n 4, props --n 6 --which f and neighbors on the
3-cycle with --oracle were generated from the command line as it stood
before the polynomial product, the report documents and the degree
formulas were each reduced to one spelling; they pin F's degree claims
at even n and the oracle sections when the flip family is empty.
The rows for gammas --n 10 (text and structured) and genfun --which f
--n 6 --format structured were generated from the command line as it
stood before the valid gammas came from one memoized kernel as text and
the polynomial terms were written from one template per term.
"""

import hashlib

import pytest

from gracelab.cli import run

GOLDEN = [
    (('labels', '--graph', '6:0,0,0,0,3,3'), 0, "2323e19f1cd538f8926576f646180aaac697b44735525009e0188fdda497011d"),
    (('labels', '--graph', '6:0,0,0,0,3,3', '--format', 'structured'), 0, "e3bd20769c1d324c4f4c32f8ab54c4697ebb2d2d376a0498b8bc5cec0996a695"),
    (('graceful', '--graph', '5:0,0,0,0,0'), 0, "ebab3af9919f75fd5fd6ae11bc0db2672a3dec9deef4392a6ca4882dfe278239"),
    (('graceful', '--graph', '5:0,0,0,0,0', '--format', 'structured'), 0, "5dac7019abc4904a862bbd3868577db9b2d398ded22de054a40c688c0d9b9ad0"),
    (('graceful', '--graph', '2:1,0'), 0, "1f4b7168fd541ec0b05dc1671c58f9ba3f8b74b93470df1d6a3bcda760b26874"),
    (('graceful', '--graph', '2:1,0', '--format', 'structured'), 0, "4b17a241588738d55cca423e03e53a97b7b23e6e111fbaf3827e68d4744112d0"),
    (('grl', '--graph', '5:0,0,0,0,0'), 0, "8c23ba53918819e15f91d100130ffad09dc17e8b26f93889af8048a4278c6d64"),
    (('grl', '--graph', '5:0,0,0,0,0', '--format', 'structured'), 0, "cd8613af4e296fe934e9cab016fcc7a47d71071762222084872e7a77dc318f08"),
    (('grl', '--graph', '5:0,0,0,0,0', '--limit', '1'), 0, "212b382f26cd414613201c66b6394cb746c12f0079a4fe97aca5ff30546c2fa4"),
    (('grl', '--graph', '5:0,0,0,0,0', '--limit', '1', '--format', 'structured'), 0, "cd8613af4e296fe934e9cab016fcc7a47d71071762222084872e7a77dc318f08"),
    (('grl', '--graph', '6:0,0,1,1,2,2'), 0, "4c48291c433b86f05cdd4dfc4bf7aea4d44b3db0e58e174d4bb832a3e8603078"),
    (('grl', '--graph', '6:0,0,1,1,2,2', '--format', 'structured'), 0, "bf84088e73454e30203f7137c339a0c8df47a58dccd9ce0dd06a27907dffcdac"),
    (('gammas', '--n', '2'), 0, "32970440e1f5b387609f751d8b4025608de501d174becc1268d795ebad9b0be7"),
    (('gammas', '--n', '2', '--format', 'structured'), 0, "fcdeb4e357ab273f7ea5516a6216154e187b9ab0af4daf4b233bc9f2902bfae6"),
    (('gammas', '--n', '6'), 0, "282ea1bee08162276bd614d956a92c45dbf28d1c09b124d722bebf918c4e9499"),
    (('gammas', '--n', '6', '--format', 'structured'), 0, "392da690615cb15ca465d4306b67241a3c6f5f522a4d8681048b8c68942aac33"),
    (('gammas', '--n', '6', '--limit', '3'), 0, "b337d166c58e2a6714c698d8bc9c1443449a60df0094a3d8c52d95b510c2c386"),
    (('gammas', '--n', '6', '--limit', '3', '--format', 'structured'), 0, "392da690615cb15ca465d4306b67241a3c6f5f522a4d8681048b8c68942aac33"),
    (('gammas', '--n', '7', '--limit', '0'), 0, "33249283a63ad9063aba6ab2cf5933fd3f177ca54fedb571ff13b11acb979d1d"),
    (('gammas', '--n', '7', '--limit', '0', '--format', 'structured'), 0, "570b2b1f2d8f69efb0238f3fee0304fdc14cf4c930b0ab0ed15046b8df6ffb0e"),
    (('sp', '--n', '4', '--seed', '7'), 0, "dc8a31a97a63ff38fad5958c05e380b7db90cb0c2f977b649e4f6a98db93bfd0"),
    (('sp', '--n', '4', '--seed', '7', '--format', 'structured'), 0, "1869a98c7a043ba39b751cfbe1a2aba47597db1b7e54761b22e38333e8b9ea86"),
    (('sp', '--n', '4', '--seed', '7', '--limit', '2'), 0, "e4936684dc0eaf54391bbef2abbf3b8c4d2e4238159d26ba4717e5aceea3a07f"),
    (('sp', '--n', '4', '--seed', '7', '--limit', '2', '--format', 'structured'), 0, "1869a98c7a043ba39b751cfbe1a2aba47597db1b7e54761b22e38333e8b9ea86"),
    (('tau', '--n', '5'), 0, "ee409edb7a2a96d6cb8d696fee1f676466e7c302d4f91047bb88f17132a3741e"),
    (('tau', '--n', '5', '--format', 'structured'), 0, "20c3416e7e642f700eb35b9f72c81099282ebab666158195dd002a4f25efd4ac"),
    (('genfun', '--which', 'f', '--n', '3'), 0, "ad72a836a00ee03aa9969fed3928391b72c82531788e47f3655d2934d7e2b0ee"),
    (('genfun', '--which', 'f', '--n', '3', '--format', 'structured'), 0, "8a94a57adbb96d74f811d767a63b0138c2f3440a4fc6251c125f4f6af6c11cd9"),
    (('genfun', '--which', 'p', '--n', '4', '--oracle'), 0, "54c8ff244c8ae77dcb3eb2a5927bfde24dd868da229b8acdb5984a2726f967c7"),
    (('genfun', '--which', 'p', '--n', '4', '--oracle', '--format', 'structured'), 0, "6c83c740c96485825c9db6eb39d9c22d0ce8c149527bdd9d53f91b37f1478a6c"),
    (('coeff', '--which', 'f', '--sequence', '0,1,2'), 0, "0bb4a089b9cf5c25a447fda1f2e2a5597462045b82489825cf83fd3510cd43ce"),
    (('coeff', '--which', 'f', '--sequence', '0,1,2', '--format', 'structured'), 0, "8cbdeab2b475cc3f8c9520092153487c7e808bc6a15cadac9286118a991bc97c"),
    (('coeff', '--which', 'p', '--sequence', '0,1,1,2'), 0, "3e4c3bbb6847f0fd026b47b94de7182d4931fec79e12bdfaafce83258df1788b"),
    (('coeff', '--which', 'p', '--sequence', '0,1,1,2', '--format', 'structured'), 0, "1d53fc7ef03e1a85f0536967660b3135e4eed4a939936c0a5f8966366dcdecc3"),
    (('props', '--n', '3'), 0, "0c12c98846cd80556cc24772967bd42279cc08877fa1fa766cd8d293bf172257"),
    (('props', '--n', '3', '--format', 'structured'), 0, "40d7ec8e6ac99db2e2ad795024d45c41f19358f26aa8166db0c87483507eec57"),
    (('props', '--n', '4', '--which', 'p'), 0, "fe2910b6a1121a8e0c7776b176d75718ae0e244461cb1d946f97662af98d9561"),
    (('props', '--n', '4', '--which', 'p', '--format', 'structured'), 0, "2f641f080d15f50c8b8fcd3650805fa27106736a20b45bc5c82e1cadd5e52a61"),
    (('tdmtt', '--n', '4', '--seed', '3'), 0, "d8f6b36e1ef07ba7bfdb0433e9410147d68cb1d5b3e80283c9902d725cfd714c"),
    (('tdmtt', '--n', '4', '--seed', '3', '--format', 'structured'), 0, "8fc3e0236bd0af33784918f24f5bc10661a50670ff8d4d9b3bd01512f3b1a8a2"),
    (('whitty', '--n', '3', '--seed', '5'), 0, "563c571f12f36c37a31ac35a0c02281794ec72f4b20db123a81ddcd1ecb5d9da"),
    (('whitty', '--n', '3', '--seed', '5', '--format', 'structured'), 0, "ca2f5dc3fab3abf8c0bd703b1269b42fb8aa324706893da114beb67c834c9e39"),
    (('whitty', '--n', '3', '--symbolic'), 0, "dbaf50dec94c58f1ddf7893789b4166feb1d75ba2210ddeab3c8ac6c6633329b"),
    (('whitty', '--n', '3', '--symbolic', '--format', 'structured'), 0, "45f13e5d326fe5010a2442d826988296e7844a450978b332777dff822dbf77af"),
    (('neighbors', '--graph', '5:0,0,0,0,0'), 0, "f820da8d278430d77e335a63622a33e9c46982c93044c0ee925bfffb58bbc019"),
    (('neighbors', '--graph', '5:0,0,0,0,0', '--format', 'structured'), 0, "5f89ca84b316ed0ebce0cd61e97d422565903cb2d6f579996c1ebdf186d75cbd"),
    (('neighbors', '--graph', '5:0,0,0,0,0', '--limit', '2'), 0, "b0462772fc87e58981c80344e78ac174f641d65571df0ecb3cf198b8a888b884"),
    (('neighbors', '--graph', '5:0,0,0,0,0', '--limit', '2', '--format', 'structured'), 0, "5f89ca84b316ed0ebce0cd61e97d422565903cb2d6f579996c1ebdf186d75cbd"),
    (('neighbors', '--graph', '4:0,0,0,0', '--oracle'), 1, "bd9c15f8e38b159b695352492f24de95a3ba04a8c57c8a50466533e9d883821d"),
    (('neighbors', '--graph', '4:0,0,0,0', '--oracle', '--format', 'structured'), 1, "d116567c526d8a7131aab9dbe54e3e9723b935be6862497b60eb5fbb3be553e8"),
    (('conjecture', '--n', '5'), 0, "df748e7abae33c43faf1723b178d1759702dcf598ddaf8b4c4ce3b16001b465a"),
    (('conjecture', '--n', '5', '--format', 'structured'), 0, "d23fbdc74b3cd0fc4de191aafd07f219310acb5b92ee1fa81f3b1c7f39a6ac8d"),
    (('grl', '--graph', '10:0,0,1,2,3,4,5,6,7,8'), 0, "18dccd5c14738ab83478d281da584891084488b1aee39fd64ec929580686e167"),
    (('grl', '--graph', '10:0,0,1,2,3,4,5,6,7,8', '--format', 'structured'), 0, "91267e401062c571ad1d055b39657816ddf61000dfd5ea50216a8a2a6ac4d306"),
    (('neighbors', '--graph', '10:8,4,2,0,5,2,8,9,2,6'), 0, "4aed92d22725095da9d2c52c0be0d477f3b52c34e1138fbb3bb30f01903176ea"),
    (('neighbors', '--graph', '10:8,4,2,0,5,2,8,9,2,6', '--format', 'structured'), 0, "8a2a725dc70952414e6d58a562bd4cc8ee8a745b0205ccb5522f0a532bce9420"),
    (('graceful', '--graph', '10:0,0,0,1,1,2,3,3,5,8'), 0, "782963147109e4b0e2274998856ddadb0423ce25c94220511fc3741933c6dd9e"),
    (('graceful', '--graph', '10:0,0,0,1,1,2,3,3,5,8', '--format', 'structured'), 0, "2ff188b52d0dbdbec550087b8d709895a1f52a98d3c0f0e94f242c8bd7c6439d"),
    (('conjecture', '--n', '8'), 0, "1ceb24bfdaa9b866386d0a857ef69c9488dc95cb0cbf440fa8fa4c6e8507c529"),
    (('conjecture', '--n', '8', '--format', 'structured'), 0, "83a96f51fcbcac4bdad7f30a1dd6fe4f96738dbef476b308d24a883342b8d8f7"),
    (('genfun', '--which', 'p', '--n', '9'), 0, "ab4af3348928dc3dab05f8d697be30b9f64fd56610b6289c10ce9474df0fd475"),
    (('genfun', '--which', 'p', '--n', '9', '--format', 'structured'), 0, "8a6fea6bb633852e98b3a9ca16c253f4bbd550a6def165c650cd991859bcc1a0"),
    (('tdmtt', '--n', '6', '--seed', '2'), 0, "b6486ae0ab9f1bfffe0fff0030d43128735c63fca2a17ba9a1d429199f32039f"),
    (('tdmtt', '--n', '6', '--seed', '2', '--format', 'structured'), 0, "2a3004ddca4c47cf5ced7c7dd9c957d86ecb8adcfdb1eed7f5c52920d5973fe8"),
    (('whitty', '--n', '6', '--symbolic'), 0, "173a646b6bd90876981f29a3ae976ed2b50bdbd712671d878fa1d2c9c23ef002"),
    (('whitty', '--n', '6', '--symbolic', '--format', 'structured'), 0, "6af607c6613989edba4b453986a3e92f57cfb2915f706ac6722258ff9912eaf2"),
    (('whitty', '--n', '6', '--seed', '9'), 0, "b7b4628c461c539d0677e1fbe017732ebec9f204930b04317c5a4adfd7aea4c5"),
    (('whitty', '--n', '6', '--seed', '9', '--format', 'structured'), 0, "6191e6b4ab77ff794a9511df010611ac75f3d366c5f84af654946e37aeb7958a"),
    (('genfun', '--which', 'p', '--n', '10'), 0, "5fc7e5c88a41852118586fca6692fd9e46983fa4ea163724a295e8c0f0e3e1a2"),
    (('genfun', '--which', 'p', '--n', '10', '--format', 'structured'), 0, "bb317707ee3e4bd379f012e8e370d63eff45d36c55e3bc9273cff59b677df2d2"),
    (('coeff', '--which', 'p', '--sequence', '0,1,2,3,4,5,6,7,8,9,10'), 0, "ac52914b5153a313521cfe203880e7fd6368d5d4e5deb034a4ab9455423bc516"),
    (('coeff', '--which', 'p', '--sequence', '0,1,2,3,4,5,6,7,8,9,10', '--format', 'structured'), 0, "8f5a661c1b04dba9759e4fa08983500b609fa7ef2336031f564b26d05e167c5b"),
    (('props', '--n', '4'), 0, "0fa4902cac072fa833ce961a244b84c8c69402e6043febcc2deec0ec76fefe03"),
    (('props', '--n', '4', '--format', 'structured'), 0, "7414a5a740d937739ab1eebefaad2993f2f6cfa7560d26a0456fb101ec17a1b0"),
    (('props', '--n', '6', '--which', 'f'), 0, "cdb040e94321f170ff1d92eb9ae665506b1297f0a528ff01247b4b6464c03ec0"),
    (('props', '--n', '6', '--which', 'f', '--format', 'structured'), 0, "ad8372b08714d2c87d9477546abd4988d46ea21108b1d7f46d92c19b0071e261"),
    (('neighbors', '--graph', '3:1,2,0', '--oracle'), 1, "88001a278bfcd9bc0fe7727e1d12ebc6df16593dda65c66baa28a413156b35ce"),
    (('neighbors', '--graph', '3:1,2,0', '--oracle', '--format', 'structured'), 1, "5a61815a01d866d8b6a4a69bec148d2da07134f7bacdb3258415ceed11b6e23a"),
    (('gammas', '--n', '10'), 0, "e234fd67e63d4ba013c36288eedee671e97cdf2afbd25ed0b4002030d4811bb0"),
    (('gammas', '--n', '10', '--format', 'structured'), 0, "0f1ddd4790c4ada418200228e4480275067007853b5f3495ce051b53884161bd"),
    (('genfun', '--which', 'f', '--n', '6', '--format', 'structured'), 0, "a7bcdaac621dbd8c0c5064869058e2c3a8f8b1a57e9a6413ca42c62034a5f2ff"),
    (('labels', '--graph', '3:0,9,1'), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize(("argv", "code", "digest"), GOLDEN, ids=[" ".join(r[0]) for r in GOLDEN])
def test_stdout_and_exit_status_are_pinned(capsys, argv, code, digest):
    assert run(list(argv)) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

