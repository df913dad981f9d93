//! Artifact digests and the references they are checked against.
//!
//! The `mc` artifact does not depend on `--seed` (its public entry point
//! fixes the base seed at `setup::SEED`), so one pinned digest covers it.
//! The `fleet` artifact is seeded through `FleetSpec.seed`: seeds in
//! [`FLEET_DIGESTS`] are checked against the pinned value, and any other
//! (held-out) seed against an untimed `--jobs 1` run of the same spec.
//! Every pinned value was cross-checked against a `--jobs 1` run when
//! recorded (`perfbench --record`).

/// FNV-1a over the artifact's text report and its serialized JSON.
#[must_use]
pub fn artifact(text: &str, json: &serde_json::Value) -> String {
    let json = serde_json::to_string(json).expect("artifact JSON serializes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes().chain([0u8]).chain(json.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of `run_mc(25, jobs)` at any `jobs`.
pub const MC_DIGEST: &str = "54b1aa6fc45fc436";

/// Digests of the `fleet` workload's `run_fleet` artifacts, by
/// `FleetSpec.seed`: every fleet of `--seed` 0 to 16.
pub const FLEET_DIGESTS: &[(u64, &str)] = &[
    (0, "aa449c4b2e20bec5"),
    (1, "cb1515c74c9bfd17"),
    (2, "238d11c72a633493"),
    (3, "4e0f4c33b1ea00e1"),
    (4, "bc11a084d8e8cca6"),
    (5, "462d8bae8adb7fff"),
    (6, "7bb51a58f2569cc3"),
    (7, "1f1ff2d37e107eb6"),
    (8, "0b06682f086b0af6"),
    (9, "9ead11c6aaa007d4"),
    (10, "98dbc657733f93a0"),
    (11, "c5ec153f4f820e1b"),
    (12, "cb4ad82e7a8dff79"),
    (13, "fb6a92362d62c6b0"),
    (14, "b7d209e1a9f37eaf"),
    (15, "3943ed3920c12fd3"),
    (16, "3527685fcaba3e78"),
    (17, "0509810c12ba824d"),
    (18, "782617b27fefac8e"),
    (19, "73465a636eeb3b5b"),
    (20, "97af2b2fe27aa9fd"),
    (21, "a8e8479e2df04eab"),
    (22, "330080020cec704f"),
    (23, "e6aa785e9a1fd02e"),
    (24, "a0d55bc70a6550a3"),
    (25, "fad02882cd8e6ea6"),
    (26, "05fad640c9b18d44"),
    (27, "d27fd8a31edb1cef"),
    (28, "16a548106707b0b3"),
    (29, "ce6e3136091744d8"),
    (30, "165b7bde586fa153"),
    (31, "7a3d18e52b625600"),
    (32, "667c0d90ca79cfae"),
    (33, "aba17906599d62a0"),
    (34, "d8078e0561e5f677"),
    (35, "977328a2e4a279de"),
    (36, "d886e4defec043d4"),
    (37, "a0da92e66d9c131b"),
    (38, "00026fa535a13f19"),
    (39, "f8c2243bc8edfc02"),
    (40, "9c2b9f89fcbf6e7c"),
    (41, "97813f062d03cdb6"),
    (42, "80c6727b4242de07"),
    (43, "61283f64c603aac7"),
    (44, "08dff7772ca2bf14"),
    (45, "ae6877db0f92157f"),
    (46, "db3c3d9a5acd660f"),
    (47, "1f24a66825416b14"),
    (48, "35f5ad8963e6df42"),
    (49, "7e84bb86c55dcc93"),
    (50, "07cde252302d6cbb"),
    (51, "07a5396bd29ef02b"),
    (52, "e2e802b4814b7c80"),
    (53, "cb9204186f0c03f3"),
    (54, "e885ec19e1fab994"),
    (55, "33fa7a1ac838940f"),
    (56, "cf655123eaa97c59"),
    (57, "c3a3bd3cd7ad5273"),
    (58, "fa8d83a278887f91"),
    (59, "f9e9a016f332687b"),
    (60, "e90db053395674ed"),
    (61, "74a4c194e4fd352d"),
    (62, "dbd8070fa3566688"),
    (63, "6e9b3db5bf8c644b"),
    (64, "0be26f2d69e68aaf"),
    (65, "603e78398fc60ca9"),
    (66, "284c91149315ba1c"),
    (67, "8ea930c425cf7fdd"),
    (68, "32937b3ff73f9e0d"),
    (69, "4dc88e7763d60e0e"),
    (70, "30925852e9d5d05c"),
    (71, "b26896a16583e1a9"),
    (72, "e7ee7f99eee8f832"),
    (73, "938104df973c7071"),
    (74, "ea5c38eefd798d5b"),
    (75, "01399cc449e359bf"),
    (76, "1412868dc3324c28"),
    (77, "734f00aac30fcfc4"),
    (78, "2860101e761926ca"),
    (79, "fc6cc5bb40c3e873"),
    (80, "f0a004a98738c085"),
    (81, "86bb39f17ee613b5"),
    (82, "1f1b7505f39a3404"),
    (83, "10598414e550b994"),
    (84, "f04bd571ca00ebbb"),
    (85, "155bb424eb0f8237"),
    (86, "d8a75552f9ccde22"),
    (87, "852cf77ef4e614f3"),
    (88, "99d57b6b578fb576"),
    (89, "1c18361a9a1bdc70"),
    (90, "7cf825a611612f8d"),
    (91, "13b8742037feeeba"),
    (92, "d40eadfccb23dd85"),
    (93, "24e88fc720de8253"),
    (94, "f0f028653cfd3e3d"),
    (95, "7c0662daccc7b08f"),
    (96, "1f0e9c1fcb6e9667"),
    (97, "c7b454658c49934c"),
    (98, "508cd860f906e25b"),
    (99, "c322c6eea63776d2"),
    (100, "b45e028bb3d866c9"),
    (101, "aa7ec07a9b1d31f8"),
    (102, "3b2590acc23b9878"),
    (103, "06b7a28c5bd5d6df"),
    (104, "75548dd0e0956557"),
    (105, "994df35a2ac933ee"),
    (106, "ecc3dd727c84fa26"),
    (107, "0b5a5ad6ec93e84a"),
    (108, "e48f8c91c03e07e5"),
    (109, "67ba7edda3ccbe38"),
    (110, "c884a6c296548e1b"),
    (111, "f30501ce349c4371"),
    (112, "e8e1c11f423cf9a6"),
    (113, "783762900cc26579"),
    (114, "8dce2df22b91ea09"),
    (115, "30fd26c68aa4d46e"),
    (116, "c7a8b26bea31e109"),
    (117, "a4a1040d3f630b43"),
    (118, "c4ec294c87c255ff"),
    (119, "425e51302f2b386a"),
    (120, "e796fd0a7483048c"),
    (121, "0e08c49c2e1e1555"),
    (122, "cb39c6ac288fb06e"),
    (123, "d6517946b737f766"),
    (124, "62048f0652ac323b"),
    (125, "0fb69c7880c192b5"),
    (126, "4fc40adcc682ec73"),
    (127, "88d9934ea8255fb5"),
    (128, "1cedcdba8a0523d0"),
    (129, "7bb8163b8dac5bb8"),
    (130, "24629ee875344840"),
    (131, "40c70bf7074dba22"),
    (132, "2e267c8ddb3b911f"),
    (133, "85ca0bc37b9cd1b3"),
    (134, "79f2db1eb502c6b1"),
    (135, "b74043eccd8ecf78"),
];

/// The pinned fleet digest for `seed`, if one was recorded.
#[must_use]
pub fn pinned_fleet(seed: u64) -> Option<&'static str> {
    FLEET_DIGESTS
        .iter()
        .find(|(s, _)| *s == seed)
        .map(|(_, d)| *d)
}
