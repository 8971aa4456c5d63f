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
	"repro/internal/search"
)

// digest hashes the JSON rendering of v.
func digest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// uniformOptimum is what the uniform baseline decides: the fields a bound
// on its walks must leave bit-identical.
type uniformOptimum struct {
	Assignment  []int
	PerCore     []search.CoreSolution
	BestValue   float64
	FoundBest   bool
	Assignments int
	Enumerated  bool
}

// uniformCounters is what the uniform baseline's walks cost.
type uniformCounters struct {
	AssignmentsPruned, SubtreesPruned, Subsets, Evaluated, Feasible int
}

// multicoreDigests hashes the placement outcome of a scenario result
// twice. The optimum digest covers the co-design with every counter and
// the uniform baseline's optimum: any change in a per-core point, a value
// bit or a co-design counter changes it. The counter digest covers the
// rest: the baseline's counters, the scenario's distinct evaluations and
// its cache statistics.
func multicoreDigests(t *testing.T, res *engine.Result) [2]string {
	t.Helper()
	co, uni := res.Multicore, res.MulticoreUniform
	if co == nil || uni == nil {
		t.Fatalf("%s: multicore results missing", res.Name)
	}
	return [2]string{
		digest(t, []any{co, uniformOptimum{uni.Assignment, uni.PerCore, uni.BestValue, uni.FoundBest, uni.Assignments, uni.Enumerated}}),
		digest(t, []any{uniformCounters{uni.AssignmentsPruned, uni.SubtreesPruned, uni.Subsets, uni.Evaluated, uni.Feasible},
			res.Evaluated, res.CacheStats}),
	}
}

// checkDigests sweeps the scenarios and compares both digests of each
// result with want's {optimum, counters} pair.
func checkDigests(t *testing.T, scns []engine.Scenario, want map[string][2]string) {
	t.Helper()
	results, err := engine.Sweep(engine.Config{Workers: 2}, scns)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		got := multicoreDigests(t, res)
		if got[0] != want[res.Name][0] {
			t.Errorf("%s: optimum digest %s, want %s", res.Name, got[0], want[res.Name][0])
		}
		if got[1] != want[res.Name][1] {
			t.Errorf("%s: counter digest %s, want %s", res.Name, got[1], want[res.Name][1])
		}
	}
}

// TestMulticoreDigestsPinned pins the placement search on 48 seeded random
// timing scenarios: seeds 1-12, 3 apps on 2 cores and 4 apps on 3 cores,
// with and without a bound, cycling over the single-level platform
// variants. The optimum digests were recorded when the co-design and the
// uniform baseline were two separate searches, the baseline without a
// bound; the counter digests once one walk per core subset served both.
func TestMulticoreDigestsPinned(t *testing.T) {
	var plats = engine.PlatformVariants()
	plats = append(plats[:2:2], plats[3]) // partitions are a single-level axis
	want := map[string][2]string{
		"a3c2s1":    {"52f53bd0629946a5c2f3f7dc77bc5f3c61cce00c6420f2cf92e517d44d9fcef2", "31a2685ce0c4c1a0bf50d9a692a1a6b9be21d5698b4f6e625e5fb42a7aac8d88"},
		"a3c2s1bb":  {"ea738a5288c61ac65e757407cacc79bd8f88ceff290ec1f7f6429378d7aed000", "445bf975eaaf8214d73efdcad6ad48432a070a4368604e90e9508601c6826a6a"},
		"a3c2s2":    {"c64d002c1514a470aa96b032f17aafcf097f95ff30cf1db0eb000cbeaf194d7f", "3f60546ef3afc622cc3db0dc70cc86f4a138698d726c64ad233cf34d7ff743f8"},
		"a3c2s2bb":  {"fb60750630e9ef7e1057e2792acd756c43908a9f7d502d534d492a8e89f16f5b", "a7f8d8e8970d78dfe4cc7a4d7e50110965f372c6e32cfe0b9c39160ac7752566"},
		"a3c2s3":    {"4a74d5608ab0d77da7cb9c010279399ccb59c0fe32cd966b8652bf3392324a4b", "92250d262e1b0e62afde44bb5e2cf5a204c15028fdfeba57bbd9d7d079e38bbe"},
		"a3c2s3bb":  {"08e0d40645bd0b523a4ec1a51fcef44b29ca2adc91615cc1aa7c2fb47cd7491d", "19f601632d14a6473624b1fea7727f74dfc4d3c730d59e33fc6a15e9ab14a6d0"},
		"a3c2s4":    {"de2f9e53d530463b9c31e5d39d75f30633601557b850d0c6a4d13a6439d6d3c0", "7258c272553eed6bf6d9894ca31f627747fd33fd6c56a864cf99f3da276c77d9"},
		"a3c2s4bb":  {"473214a60984734d7b6521cba5361783b6129b06fefdfd9359dcae6e7bd9673a", "bce52c1d0caa34ad4151883defd5624d66796f6e3fc75a17bd4b5c2f1f931a39"},
		"a3c2s5":    {"1922dec7e5ce4fcf6239b9b9c60624c3e18df3da6343c27d4bfa9ff343878dfa", "a77dc7d3fb3be25a7f027ee040b11ddda022b4b39cfba64539fa4a9af5cd6bbb"},
		"a3c2s5bb":  {"cd825c319a07bd143bd563b8893074c0a0f83a48e9ab94bfc59c9dc23097e70c", "bffb8f676a54fa5a777ce927d36843e29f1ede878ff3a7ff3af90c00b07d2c56"},
		"a3c2s6":    {"bd7b5b9f217f7f77e4cbae010e2757a71aed4da0483de09a46a36b792f7e9f2a", "6d54f3f37028bc1d51f0d12436a9e67450a2816db37e97c4bcd119ffab74c90d"},
		"a3c2s6bb":  {"7ea95e9a9a6cf339fc02a30712c94345654046e3109269d0a793bd35bdd69ee9", "70c01b8a0643f7647b9537c9a0cab8cf73b4ab93997b9e7a2508292f7d65e5ce"},
		"a3c2s7":    {"2d97d9af5aa84f52771232b5578b0189d5163087c8c72d89d87092f06386ccba", "70e016b1054b32238d24a1da560c4244aab91123f4004f6eac85807a620e834e"},
		"a3c2s7bb":  {"0fc789ef996f3c7445c2652493239ff5a61721a96ff14fa4b16f0c2d9aa521ec", "f2ce2afb740636f414164183e50eb225016c8ac4b11ffea978a04a3d226682be"},
		"a3c2s8":    {"4fd7706d9afb667e370f42be38283152930b1614ecde9cd0fc8ed4e0acf92b99", "ba0686c82237a16f2d190731a0040aeec1f35c46b2239f19c289dd4f8682407a"},
		"a3c2s8bb":  {"ae28f2b050c30151b8b34d5c07c88f8c9cbeb46e37e436dfdc04ba82492fc66d", "f3be62cc816be7562e23e397f48129844d462c8ca7fca3a71a2c0baa90f923a9"},
		"a3c2s9":    {"ee14c4dbb1acc9f0c08890922950aa98b98a5bc454f83b8100df39f17a17fbb1", "b547f296b7044fc750b8ef4470748d145645c45ed03817724d8374718002fba5"},
		"a3c2s9bb":  {"2b966758510f5bcae201cc42faaa26e1514a5a59442d03cf5ecc9808deb8dccc", "f322e55c392685cedf431062cd6cabd4ed5401cb8060a560e4fee2d3e15c4228"},
		"a3c2s10":   {"bd79ef5e4ef878a042c566cc4754f05c6b1a67634acf2a5c7ddcee17dc545c3b", "d67ca89506bffe3221744fba7b4ca77be1743d37a9dff30f730096e2a189295b"},
		"a3c2s10bb": {"2c6402785a17bb752509e4f968dd82e33422a6b44013b58f14dcc6c7e532a4d3", "036f9d0982b09be463a9ba66b31ea1660c07e76c91482205fc358d87984cc70f"},
		"a3c2s11":   {"00cf926d3431aafddb9ab87c814afd58100323374cb3dcdd00543d71d238b15b", "29f9bed3b2642a884e19da39f286bc1478f3006da2763e18cbb431e123779ee6"},
		"a3c2s11bb": {"306815f6c726f190a68112f4471982cbf52d23e1ec26b3bed6ab774b019f8305", "c2886892d88d28383ee22e26c24fd37b0c154a55dcd68191ee33e55315c76a36"},
		"a3c2s12":   {"9bae0103e3de004ee5b6a32c123e854df1d2ef82a8e43238b767146448dbf6da", "be2d98e878406e0ee93e8abbf25f24eff9ff3bbf44da2a4d34b6fca5cc9596a4"},
		"a3c2s12bb": {"dea2d3f09a7e2c3d6b7b4179695bbe4560a3bbe45d14b5f9b078374617263e89", "43b70015111473bdb6a180657dc92ec8a4fe7bbf990641f6ed26a2762aa4220a"},
		"a4c3s1":    {"8c8581e234b86623ce179a393c12cb7439c4fdacf91d86929c0c5d5ef51d0f06", "ff0c560e8a1443241f2edcb4eccf431e5630ad56ab01ff805f2b803f7afaefa4"},
		"a4c3s1bb":  {"5b68accb3e1941c34934b2328575ed350cdb9050992c8e5554afc2b80d9c1e22", "134c2b0fb3c77696804b1bb03392cf983e3053b6b56943412e16e6e16c45d2dc"},
		"a4c3s2":    {"15648e514449e15d238e6046302184c1c2a75da85289398b09feaf8c7f13e93f", "b734a075542ce13b6ac3184bb63dbd3a9d4a386cb8e077ad564d67b08170d0b7"},
		"a4c3s2bb":  {"6fd4e51b3fb84dbbacb9441ae9aa5794420fd7701f9f35dfcc0f44b81931715a", "fc92009628b23fbe1b9aef75ab9cdfca0889e9175fc25c924339fb86aefddd21"},
		"a4c3s3":    {"0039fc458ddf73782f8cc586b6617d752cee5aba141c28fa3e8e414f579778b1", "7ba08eada0e467d824b4f9a8cb1956fc373f4be20fee068229382b20c49c1d7a"},
		"a4c3s3bb":  {"b409e4518759b89d29d639ccfbee555c19f27807d64067ab0a4330a47f4c0d08", "9bef1071f7576e1634abfda4f5b39bb9addfd29dfe60a1526dae5a45379de8b8"},
		"a4c3s4":    {"fea9bbee80aa046b310d6f37bd535cdd9008db6adcdf95a4287470f41ec0c9c0", "2a1bfaa65fe41fda8a9f3b39bbaa4b5bf748fc0830d77064e8cca33cc6420fcf"},
		"a4c3s4bb":  {"01559915cc4332fc1816dd371711022fc2550b499fe563e82923c0766020b8d4", "1c9292f7fd79962a19131f68f0dab8bdf47e28252054ca2b45680847f9244c3a"},
		"a4c3s5":    {"fac68641694887d5b4ee2ec5b97409cdb817b9d337cea1c396a312534cefc665", "c3772253ec52757bed7fcc166e09c617e65204762a315bf643aece0b97e0ffeb"},
		"a4c3s5bb":  {"a25a500ad1f7d13effb1244fe6ab7a1f4cbaed70e07c2f4704346482d733c50f", "7975d5b6775b46d220ba485c02b0d97e90970a0cfd5aeaf7c6df29b82affc8e1"},
		"a4c3s6":    {"9c15a924316f564db030e73131924b4f255157034e5009937253fbe7ca847628", "6dc3a5a630176f639b6f86ea6c3028109098a09d9c92e397f987d54d96947aad"},
		"a4c3s6bb":  {"189540e0efdf1163b75d864a3f3a53e36e80fef18068a7363a0be1e33a9bb185", "4d315be0fb2d8a50a9ef893a5e6282f728f5de2db850d7884ce4690dae504b15"},
		"a4c3s7":    {"e392ebf52399d99e5b9094e9982baff088c2358d9db2292d6a5a80171a66bd92", "137adeea8e773c911ba1081780c0b644964c9915467d4c5576962eedb0c24d77"},
		"a4c3s7bb":  {"6ee98fd3ab542c314aef6867953bc801a70a8250b86b204fef3fcb877d13d449", "37b02a3392e93d9f5520d3373bf8a5e1e3601c3691b8b4febebbc63f2e3aa58e"},
		"a4c3s8":    {"9ab736097be45c54666960e0a20d20d6bfe7902dabbdd1eb18cd99edec9700ac", "a3d99af32cb9d6c594a497f6e14ad702910204020c45b3a2a280c69884c28cc2"},
		"a4c3s8bb":  {"abf811a9148518184bd7a9330ff96a6f362ef8c02ac4438155bf1fed6c580608", "8b3c20f53e4f9833895458f3e89dcd1eb7fc79ae65352f86c7bacaa3d5706bb5"},
		"a4c3s9":    {"bc3181dfc2dd34a28895693d010b33b2d2cb9e5eff7d9d46a13aad0f1a5d15bc", "343e713e3efd868929296a0d566e302472750a20fb06a7b4afaebf1f4bc4037a"},
		"a4c3s9bb":  {"64bf3266b066d1e2fbe429f6ad155f4b19613dfb94540cf90a1129f1c425057c", "2fb2b91527ad430c8ea8d8bbba5d6a8e25a1d0736fbc9ece1acdeacba2897a79"},
		"a4c3s10":   {"916e291cc94702056045de608175a843c1065b7d43e43880c378c33a63647b15", "213b714012daa646f9d473b88e3dcedbdf0ab5ac200e22165057fa19ae095256"},
		"a4c3s10bb": {"80a0dec62543f554d00d3516ec0880d6916ef609eb7aeb2b084ed5e730fccc7b", "447553a81936eb0e4df0281f6c60f50b9a701b2e284106aab23d9d767c718a04"},
		"a4c3s11":   {"8a18d02f988b98c3dab256cf5ef0b9846f45b709bde297fd675c9a250e72ba54", "cef905b7e13ccd0a787387f53b05ef1bf09dd82da6e24b02f9ad2288ac82b20d"},
		"a4c3s11bb": {"aa0dca0a3b11bc65d67629df437775d4d5fa76db2db772a1ff6dcef8159a397c", "338de59042cc49a32efbcdb3c5ca9a75d8c4fd6bde330085df9c64d5abee6bf9"},
		"a4c3s12":   {"fbafc314a5a8855f0d20d1cb556ea2283da9168f63e830be601e9f81c53493a4", "96be5f7c74b78fec08ce9d9e7b3e0052c3b5f6354d42c0dc7793bcc34b32ad8e"},
		"a4c3s12bb": {"ec82063e11bc94428fd1a100d007e77bf13476167459455f9a5d041df78625bb", "005cde517cb127a1da097e45020e2d31d1c4c26561a889c04db749ba71bbe6ae"},
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
	checkDigests(t, scns, want)
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
	want := map[string][2]string{
		"paper-128x1":   {"e05d72625ef1ab0bd05d20180a248493b8b1f6d873dbb0379539786451e6c816", "9b2161582899277cf14b31f1bd1d51cdeaf3a66223a1dcd9a269951fc485ee97"},
		"paper-128x1bb": {"e05d72625ef1ab0bd05d20180a248493b8b1f6d873dbb0379539786451e6c816", "9b2161582899277cf14b31f1bd1d51cdeaf3a66223a1dcd9a269951fc485ee97"},
		"4way-256":      {"0e51bcede5c85cbffa569ed43e81c2f874b536244b111fbb3b9c41ee8b1a1aa8", "beeb890ff8a871ad4af42741f73da0f658b99f96cfb7285dc9ad8a4faef445df"},
		"4way-256bb":    {"0e51bcede5c85cbffa569ed43e81c2f874b536244b111fbb3b9c41ee8b1a1aa8", "beeb890ff8a871ad4af42741f73da0f658b99f96cfb7285dc9ad8a4faef445df"},
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
	checkDigests(t, scns, want)
}
