package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/exp"
)

// multicoreDigest hashes the placement outcome of a scenario result: both
// placement searches with every counter, the distinct evaluations and the
// cache statistics. Any change in a per-core point, a value bit, a
// placement counter or the cache traffic changes the digest.
func multicoreDigest(t *testing.T, res *engine.Result) string {
	t.Helper()
	if res.Multicore == nil || res.MulticoreUniform == nil {
		t.Fatalf("%s: multicore results missing", res.Name)
	}
	b, err := json.Marshal([]any{res.Multicore, res.MulticoreUniform, res.Evaluated, res.CacheStats})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestMulticoreDigestsPinned pins the placement search on 48 seeded random
// timing scenarios: seeds 1-12, 3 apps on 2 cores and 4 apps on 3 cores,
// with and without a bound, cycling over the single-level platform
// variants. The digests were recorded when the co-design and the uniform
// baseline were still two separate placement searches over one cache.
func TestMulticoreDigestsPinned(t *testing.T) {
	var plats = engine.PlatformVariants()
	plats = append(plats[:2:2], plats[3]) // partitions are a single-level axis
	want := map[string]string{
		"a3c2s1":    "4910fa3e4ba9eabc0d82c497db1db74192b2c0c2f824150cd81b4cb0cc960470",
		"a3c2s1bb":  "c22b9741037a6678182d51b34ba9a76fefc526697a6ec09af713f3c8bba1aafe",
		"a3c2s2":    "c18068bff19d859b7ca5bd29623bdf5f7074fe4fe586dd25ccc1f74970256253",
		"a3c2s2bb":  "db9c584ae41eebc4397dc8a4941420127c4e7b661feaab4dae8500c99d74396b",
		"a3c2s3":    "7695923662369198375170498bf00dce0742d196415abc7d22992cbc5bb67a81",
		"a3c2s3bb":  "19b26976bff23b63305941599c7ce7060e2d9068b819aaba94259efa69d4173f",
		"a3c2s4":    "c5a079d4512a8b6a01550429642b61ca8a3dc72f6ff88cd8df94c9029bdf2086",
		"a3c2s4bb":  "d0cf1553f7acc71183f3bf0fac9a7560c950c5cb109a8a7b82bef1e7433b083b",
		"a3c2s5":    "50be389cb423b62b553ad892ae02de260ad34bf88edcc55721a25f191c8669bb",
		"a3c2s5bb":  "3bdf840fcb307c330c0c4b23a280cecef7af456566b5b4529fbb09f28b5e787c",
		"a3c2s6":    "c80d96e44ac48816c07ff8fbb37a30e9d1ed12a33dd6b5c57e89f924b374aa8d",
		"a3c2s6bb":  "3a3a1d3be3f5a9c9039cfccb8d33ecf0a35ab7bd18fd0538efcd249f826b195f",
		"a3c2s7":    "22ae891ded3f28b3f2392b3a3642c3e8729d0008ab17321bdd643da0b0470d16",
		"a3c2s7bb":  "41596fa4105b567719fb7ace2df9e83979ed4998765e53be16df03e304393f98",
		"a3c2s8":    "aedbc4c7f68b9488f7f7456592347014bf6fa235eb0cb97d52c51bbae429797e",
		"a3c2s8bb":  "cbb238169b7f3cae916bafa0b25dd3a4849ad3afd6edec818d624341e0c593b3",
		"a3c2s9":    "f14b1bb8235a7ea1adb816a23c9814a2338ab180a7151813bdf6ac35de70cf64",
		"a3c2s9bb":  "a6d338bfc2b361e39ca889275d72739dd6d598c7b835e0f7659ffe814aa1b947",
		"a3c2s10":   "fcacac7b1301f83cf13dc5bad291e5c9d4e6dd3b825dd7657768366d33aaf93c",
		"a3c2s10bb": "691ffb0585caf0db9026620fd64037eb4804cfbf6273fbcdf307ff4d1ad071a5",
		"a3c2s11":   "cefd36b3b92d964935e5ac073a3eb09953c2301c2c4c06f4cf04f8091dec69d9",
		"a3c2s11bb": "8d9b1735392ebf31ef6dfc0eb6e5bfca11281bff532f3f36c0b902067796f7b5",
		"a3c2s12":   "11baf08429c650325e1a98faa8274e6cc9744c9c89591d4606847f44fe6928fa",
		"a3c2s12bb": "d1fff160167c1a415e18e092f093f73b7b4a9d3a67ea25433075be0889647610",
		"a4c3s1":    "57827528b87ec9d042962444963f0935ae980b1121bd83bbc7ee398fe51554a5",
		"a4c3s1bb":  "2a5a244b6936682f8e1c706d8f743b43c3df4e1160a84aa931ad7f50402f5788",
		"a4c3s2":    "94d3d3e72914d66056baa52adb468604f85b8e6221d4293801923a8e762f4279",
		"a4c3s2bb":  "0550268444d182684ab5fe1dac8e34d4fc1c854aecd6fcd4e1453b4d745ee673",
		"a4c3s3":    "cfc56ab01d8325794716f7167d24adab85c597ee75737b89c0c7e894b2cd876f",
		"a4c3s3bb":  "14ed32c9b0e26b3b21516b7c1d3614915e1d22fd138fa40b1b6c6a8fe0babb4b",
		"a4c3s4":    "a3595384c6d9015de421b2b752b7a335cbafceb5e58ce9a6b22b803d86b6e748",
		"a4c3s4bb":  "dacaf97887550126137d9ec5de60f0a4627c535dad270f1bb1b8170ed58feb42",
		"a4c3s5":    "d001faa68185b9183bd9930a46d721865db141a03cbc477360584892aee216fa",
		"a4c3s5bb":  "34f4d1d79e8aa6a38718a51672d4844db780f152656460fc610cb6e80e0a846f",
		"a4c3s6":    "ab362021af2cb1d673e635635bfa09e7071e88b8537f9e9a7b1b3587cca6e508",
		"a4c3s6bb":  "9de43ac3c423a82bf303bf574a621bbb0909a076f5255f065629f1b9632b458a",
		"a4c3s7":    "de4943f6a23585e4a7e027b7482cff479b88831062b93f2269b77ef23bfe55cb",
		"a4c3s7bb":  "1d5a7ed995f8c6c6a71c71ecf4bc7aa3681fa34534ce29d213b985f7aa9ca173",
		"a4c3s8":    "a8262367524eac159fead16e8a079aa0a2041ec8edecc4d8a6c20cbc498926b5",
		"a4c3s8bb":  "9caf231327a0fea814bb0e84924cbc5da9d75d71975d9984e4a666d512515bb5",
		"a4c3s9":    "371e5148fc4650c2edd0463d840b71b5bdfdb784d8ce5d2c2e693503997b6b3c",
		"a4c3s9bb":  "8cca9ab8f8bf195a6dc8c33394db936d69818d560cf2da84681d060f876b2af7",
		"a4c3s10":   "afb07e2cb321749fd8cbe772eadc6f48c23ad56f9113476d8d56449a05c19fc1",
		"a4c3s10bb": "3687bae74ac084bb2a4a5e25f8c3a3201093bffb88af88bceacca3196acefdd6",
		"a4c3s11":   "c5376c634849cf92117a102b255e21278938d27b482803c6bdc1d19c921af7b0",
		"a4c3s11bb": "62a15af62d5395529440e0b3b241346ec791f02e1d15a5451c6695e17b5a40e0",
		"a4c3s12":   "e081d6cd55b2a2a529f3e9678d51ba4ae895ec8c978fda4293d673a417c4c720",
		"a4c3s12bb": "8bfd75369e18a2881a61cf92e6e507d0ccd9bcbca339cb54ea48e68d1b073e67",
	}
	var scns []engine.Scenario
	for _, shape := range []struct{ apps, cores int }{{3, 2}, {4, 3}} {
		for seed := int64(1); seed <= 12; seed++ {
			for _, bb := range []bool{false, true} {
				name := fmt.Sprintf("a%dc%ds%d", shape.apps, shape.cores, seed)
				if bb {
					name += "bb"
				}
				scns = append(scns, engine.Scenario{
					Name: name, Seed: seed, NumApps: shape.apps, Cores: shape.cores,
					Platform: plats[int(seed)%len(plats)], MaxM: 4,
					Exhaustive: true, BranchBound: bb,
				})
			}
		}
	}
	results, err := engine.Sweep(engine.Config{Workers: 2}, scns)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if got := multicoreDigest(t, res); got != want[res.Name] {
			t.Errorf("%s: digest %s, want %s", res.Name, got, want[res.Name])
		}
	}
}

// TestMulticoreDesignDigestsPinned is the design-objective counterpart on
// the case study: tiny design budget, burst cap 2, two cores, with and
// without the weight bound, on two of the partition platforms (the 1-way
// paper cache and a 4-way one). Every per-core point's value is a full
// controller design, so the digests pin the designs of the core
// evaluations too.
func TestMulticoreDesignDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("design-objective placement searches are slow for -short")
	}
	want := map[string]string{
		"paper-128x1":   "b9b7d4b855a6696cde8430411b57f8c4183cae291c41af0a8ef8ebb30f898b38",
		"paper-128x1bb": "b9b7d4b855a6696cde8430411b57f8c4183cae291c41af0a8ef8ebb30f898b38",
		"4way-256":      "b780553ceddbdc8bcb6022424c519ba3f4a3a9cac05f9621df1deaaa76d17b9d",
		"4way-256bb":    "b780553ceddbdc8bcb6022424c519ba3f4a3a9cac05f9621df1deaaa76d17b9d",
	}
	var scns []engine.Scenario
	for _, p := range exp.PartitionPlatforms()[:2] {
		for _, bb := range []bool{false, true} {
			name := p.Name
			if bb {
				name += "bb"
			}
			scns = append(scns, engine.Scenario{
				Name: name, Seed: 1, Apps: apps.CaseStudy(), Platform: p.Platform,
				Objective: engine.ObjectiveDesign, Budget: exp.Budget("tiny"),
				MaxM: 2, Cores: 2, Exhaustive: true, BranchBound: bb,
			})
		}
	}
	results, err := engine.Sweep(engine.Config{Workers: 2}, scns)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if got := multicoreDigest(t, res); got != want[res.Name] {
			t.Errorf("%s: digest %s, want %s", res.Name, got, want[res.Name])
		}
	}
}
