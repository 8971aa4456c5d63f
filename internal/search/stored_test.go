package search

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine/evalcache"
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/store"
)

// outcomeRecord is an outcome record as encoding/json writes and reads it:
// the codec every store was first written with, and the oracle
// OutcomeCodec's bytes are pinned against.
type outcomeRecord struct {
	PallBits uint64  `json:"pall_bits"`
	Pall     float64 `json:"pall"`
	Feasible bool    `json:"feasible"`
}

func oracleCodec() evalcache.Codec[Outcome] {
	return evalcache.Codec[Outcome]{
		Encode: func(o Outcome) ([]byte, error) {
			return json.Marshal(outcomeRecord{PallBits: math.Float64bits(o.Pall), Pall: o.Pall, Feasible: o.Feasible})
		},
		Decode: func(data []byte) (Outcome, error) {
			var r outcomeRecord
			if err := json.Unmarshal(data, &r); err != nil {
				return Outcome{}, err
			}
			return Outcome{Pall: math.Float64frombits(r.PallBits), Feasible: r.Feasible}, nil
		},
	}
}

// codecPalls lists the boundary cases of encoding/json's float rendering —
// zeros of both signs, subnormals, both sides of the 1e-6 and 1e21 format
// cutoffs, single- and three-digit exponents, the longest rendering — and
// the values JSON cannot carry, followed by random bit patterns (mostly
// huge or tiny magnitudes) and random values spread across the cutoffs.
func codecPalls(rng *rand.Rand, random int) []float64 {
	var palls []float64
	for _, f := range []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-1022 - 0x1p-1074, 0x1p-1022,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1.5e-9, 1e-10, 1e-100, 1e-300,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e22, 1e100, math.MaxFloat64,
		0.1, 0.5, 1, 123456789, 0.123456789123456789, 9.999999999999999e20, 0.0000012345678901234567,
	} {
		palls = append(palls, f, -f)
	}
	palls = append(palls, math.NaN(), math.Float64frombits(0xfff0000000000001), math.Inf(1), math.Inf(-1))
	for k := 0; k < random; k++ {
		palls = append(palls, math.Float64frombits(rng.Uint64()),
			(2*rng.Float64()-1)*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	return palls
}

// TestOutcomeCodecMatchesJSONOracle pins the encoder to encoding/json: on
// the boundary cases and random values, feasible or not, it writes the
// oracle's bytes, fails exactly where the oracle fails (NaN, ±Inf) with
// the same reason, and every record decodes to its outcome bit for bit.
func TestOutcomeCodecMatchesJSONOracle(t *testing.T) {
	codec, oracle := OutcomeCodec(), oracleCodec()
	for _, f := range codecPalls(rand.New(rand.NewSource(1)), 20000) {
		for _, feasible := range []bool{false, true} {
			o := Outcome{Pall: f, Feasible: feasible}
			got, err := codec.Encode(o)
			want, werr := oracle.Encode(o)
			if (err == nil) != (werr == nil) {
				t.Fatalf("encode %v (bits %#x): error %v, oracle %v", f, math.Float64bits(f), err, werr)
			}
			if werr != nil {
				if reason := strings.TrimPrefix(werr.Error(), "json:"); !strings.HasSuffix(err.Error(), reason) {
					t.Fatalf("encode %v: error %q, oracle %q", f, err, werr)
				}
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encode %v (bits %#x): %s, oracle %s", f, math.Float64bits(f), got, want)
			}
			back, err := codec.Decode(want)
			if err != nil || math.Float64bits(back.Pall) != math.Float64bits(f) || back.Feasible != feasible {
				t.Fatalf("decode %s = (%+v, %v)", want, back, err)
			}
		}
	}
}

// TestOutcomeCodecRejectsNonCanonical feeds the decoder records the
// encoder cannot write — many of which encoding/json reads — and requires
// the one sentinel error for each, so the cache recomputes the value.
func TestOutcomeCodecRejectsNonCanonical(t *testing.T) {
	const canon = `{"pall_bits":4602678819172646912,"pall":0.5,"feasible":true}`
	decode := OutcomeCodec().Decode
	if o, err := decode([]byte(canon)); err != nil || o != (Outcome{Pall: 0.5, Feasible: true}) {
		t.Fatalf("canonical record = (%+v, %v)", o, err)
	}
	for _, rec := range []string{
		``,
		`null`,
		`{}`,
		`not json`,
		canon[:len(canon)-1],
		canon + ` `,
		canon + `x`,
		`{"pall_bits": 4602678819172646912, "pall": 0.5, "feasible": true}`,
		`{"pall":0.5,"pall_bits":4602678819172646912,"feasible":true}`,
		`{"pall_bits":4602678819172646912,"feasible":true}`,
		`{"pall_bits":4602678819172646912,"pall":0.5,"feasible":true,"x":1}`,
		`{"pall_bits":04602678819172646912,"pall":0.5,"feasible":true}`,
		`{"pall_bits":,"pall":0.5,"feasible":true}`,
		`{"pall_bits":4602678819172646912,"pall":5e-1,"feasible":true}`,
		`{"pall_bits":4602678819172646912,"pall":0.50,"feasible":true}`,
		`{"pall_bits":4602678819172646912,"pall":0.25,"feasible":true}`,
		`{"pall_bits":4602678819172646912,"pall":0.5,"feasible":1}`,
		`{"pall_bits":4602678819172646912,"pall":0.5,"feasible":TRUE}`,
		`{"Pall_Bits":4602678819172646912,"pall":0.5,"feasible":true}`,
		`{"pall_bits":18446744073709551616,"pall":0,"feasible":false}`,
		`{"pall_bits":9221120237041090561,"pall":NaN,"feasible":false}`,
		`{"pall_bits":9218868437227405312,"pall":+Inf,"feasible":false}`,
	} {
		if o, err := decode([]byte(rec)); !errors.Is(err, errNonCanonical) {
			t.Errorf("decode %q = (%+v, %v), want errNonCanonical", rec, o, err)
		}
	}
}

// TestOutcomeCodecDecodeAllocsNothing pins the decoder's allocation budget:
// none, for a canonical record and for a rejected one.
func TestOutcomeCodecDecodeAllocsNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	decode := OutcomeCodec().Decode
	for _, rec := range [][]byte{
		[]byte(`{"pall_bits":13826050856027422720,"pall":-0.0000012345678901234567,"feasible":false}`),
		[]byte(`{"pall_bits": 4602678819172646912,"pall":0.5,"feasible":true}`),
	} {
		if n := testing.AllocsPerRun(100, func() { decode(rec) }); n != 0 {
			t.Errorf("decode %s: %v allocs, want 0", rec, n)
		}
	}
}

// FuzzOutcomeCodec checks every record the decoder accepts against
// encoding/json, which must read the same bits and flag from it, and
// against the encoder, which must write it back byte for byte.
func FuzzOutcomeCodec(f *testing.F) {
	oracle := oracleCodec()
	for _, o := range []Outcome{{Pall: 0.5, Feasible: true}, {Pall: -1}, {Pall: 1e-7}, {Pall: 1e21, Feasible: true}, {Pall: math.Copysign(0, -1)}} {
		rec, err := oracle.Encode(o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	f.Add([]byte(`{"pall_bits": 0, "pall": 0, "feasible": false}`))
	codec := OutcomeCodec()
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := codec.Decode(data)
		if err != nil {
			if !errors.Is(err, errNonCanonical) {
				t.Fatalf("decode %q: %v, want errNonCanonical", data, err)
			}
			return
		}
		want, err := oracle.Decode(data)
		if err != nil {
			t.Fatalf("decoded %q, oracle: %v", data, err)
		}
		if math.Float64bits(o.Pall) != math.Float64bits(want.Pall) || o.Feasible != want.Feasible {
			t.Fatalf("decode %q = %+v, oracle %+v", data, o, want)
		}
		if back, err := codec.Encode(o); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("encode(decode(%q)) = (%q, %v)", data, back, err)
		}
	})
}

// TestOracleStoreReadsWarm sweeps points whose outcomes cover every format
// case through a disk store written with the encoding/json codec, then
// reads them back through a fresh handle with OutcomeCodec: every point is
// a disk hit with its exact outcome and nothing is recomputed. A store
// written with OutcomeCodec holds the same record bytes.
func TestOracleStoreReadsWarm(t *testing.T) {
	var palls []float64
	for _, f := range codecPalls(rand.New(rand.NewSource(2)), 150) {
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			palls = append(palls, f)
		}
	}
	points := make([]sched.Schedule, len(palls))
	outcome := map[string]Outcome{}
	for k := range points {
		points[k] = sched.Schedule{1 + k/16, 1 + k%16}
		outcome[points[k].Key()] = Outcome{Pall: palls[k], Feasible: k%3 == 0}
	}
	execs := 0
	eval := func(s sched.Schedule) (Outcome, error) {
		execs++
		return outcome[s.Key()], nil
	}
	sweep := func(dir string, c func(*store.Store) *PointCache[sched.Schedule]) (*store.Store, evalcache.Stats) {
		t.Helper()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		cache := c(st)
		for _, s := range points {
			got, _, err := cache.Get(s)
			if want := outcome[s.Key()]; err != nil || math.Float64bits(got.Pall) != math.Float64bits(want.Pall) || got.Feasible != want.Feasible {
				t.Fatalf("%v = (%+v, %v), want %+v", s, got, err, want)
			}
		}
		return st, cache.Stats()
	}
	oracleDir, codecDir := t.TempDir(), t.TempDir()
	sweep(oracleDir, func(st *store.Store) *PointCache[sched.Schedule] {
		return evalcache.NewTiered(eval, st, "ns/", oracleCodec())
	})
	if execs != len(points) {
		t.Fatalf("cold sweep executed %d of %d points", execs, len(points))
	}
	execs = 0
	oracleStore, warm := sweep(oracleDir, func(st *store.Store) *PointCache[sched.Schedule] {
		return NewTiered(eval, st, "ns/")
	})
	if execs != 0 || warm.DiskHits != int64(len(points)) {
		t.Fatalf("warm sweep over the oracle's store: %d executions, %d disk hits of %d points", execs, warm.DiskHits, len(points))
	}
	codecStore, _ := sweep(codecDir, func(st *store.Store) *PointCache[sched.Schedule] {
		return NewTiered(eval, st, "ns/")
	})
	for _, s := range points {
		want, _ := oracleStore.Get("ns/" + s.Key())
		if got, _ := codecStore.Get("ns/" + s.Key()); !bytes.Equal(got, want) {
			t.Fatalf("%v: stored %s, oracle stored %s", s, got, want)
		}
	}
}

func TestOutcomeCodecBitExactRoundTrip(t *testing.T) {
	codec := OutcomeCodec()
	cases := []Outcome{
		{Pall: 0.123456789123456789, Feasible: true},
		{Pall: -1, Feasible: false},
		{Pall: math.Nextafter(0.5, 1), Feasible: true},
		{Pall: math.Copysign(0, -1), Feasible: false}, // -0.0 must survive
	}
	for _, o := range cases {
		data, err := codec.Encode(o)
		if err != nil {
			t.Fatalf("encode %+v: %v", o, err)
		}
		got, err := codec.Decode(data)
		if err != nil {
			t.Fatalf("decode %s: %v", data, err)
		}
		if math.Float64bits(got.Pall) != math.Float64bits(o.Pall) || got.Feasible != o.Feasible {
			t.Fatalf("round trip %+v -> %+v (bits %x vs %x)", o, got,
				math.Float64bits(o.Pall), math.Float64bits(got.Pall))
		}
	}
	if _, err := codec.Decode([]byte("not json")); err == nil {
		t.Fatal("garbage decoded")
	}
}

// BenchmarkOutcomeCodec measures one record's encode and decode over a
// spread of outcome values.
func BenchmarkOutcomeCodec(b *testing.B) {
	codec := OutcomeCodec()
	rng := rand.New(rand.NewSource(3))
	outs := make([]Outcome, 256)
	recs := make([][]byte, len(outs))
	for i := range outs {
		outs[i] = Outcome{Pall: (2*rng.Float64() - 1) * math.Pow(10, float64(rng.Intn(10)-8)), Feasible: i%2 == 0}
		rec, err := codec.Encode(outs[i])
		if err != nil {
			b.Fatal(err)
		}
		recs[i] = rec
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			if _, err := codec.Encode(outs[i%len(outs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			if _, err := codec.Decode(recs[i%len(recs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// kvBackend is a minimal in-memory backend for tier tests.
type kvBackend struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (b *kvBackend) Get(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.m[key]
	return v, ok
}

func (b *kvBackend) Put(key string, payload []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = append([]byte(nil), payload...)
}

func TestTieredCachesShareOutcomesAcrossInstances(t *testing.T) {
	backend := &kvBackend{m: map[string][]byte{}}
	execs := 0
	eval := func(s sched.Schedule) (Outcome, error) {
		execs++
		return Outcome{Pall: 0.25 * float64(s[0]), Feasible: true}, nil
	}
	a := NewTiered(eval, backend, "ns/")
	if _, charged, err := a.Get(sched.Schedule{2, 1}); err != nil || !charged {
		t.Fatal("cold get failed")
	}
	b := NewTiered(eval, backend, "ns/")
	out, charged, err := b.Get(sched.Schedule{2, 1})
	if err != nil || !charged || out.Pall != 0.5 {
		t.Fatalf("warm get = (%+v, %v, %v)", out, charged, err)
	}
	if execs != 1 {
		t.Fatalf("execs = %d, want 1 (second instance must load from backend)", execs)
	}

	jexecs := 0
	jeval := func(j sched.JointSchedule) (Outcome, error) {
		jexecs++
		return Outcome{Pall: 1, Feasible: true}, nil
	}
	j := sched.JointSchedule{M: sched.Schedule{1, 1}, W: sched.Ways{1, 1}}
	jc := NewTiered(jeval, backend, "jns/")
	jc.Get(j)
	jc2 := NewTiered(jeval, backend, "jns/")
	jc2.Get(j)
	if jexecs != 1 {
		t.Fatalf("joint execs = %d, want 1", jexecs)
	}
}
