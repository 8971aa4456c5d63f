package sched

import "fmt"

// PointKey is the fixed-size memory-tier identity of a search point: the
// evaluation caches (internal/engine/evalcache) key their memory tier by it
// and render the string Key only for the persistent tier. Packing a point
// allocates nothing, and the layout does not depend on any search box, so
// caches shared across searches with different bounds (cmd/served shares one
// framework cache across requests) stay valid.
//
// Layout: byte 0 holds len(M), byte 1 len(W) (0 = shared cache), byte 2 is
// 0 for a single-core point and len(Apps)+1 for a multi-core core point;
// then one byte per application index, per m_i and per w_i, in that order.
// Every field is explicit, so two points pack equal exactly when their Key
// strings are equal, and a shared joint point packs like its plain schedule.
type PointKey [PointKeyBytes]byte

// PointKeyBytes is the size of a PointKey. A point packs when its header
// and coordinates fit and every coordinate lies in [0, MaxPackedCoord].
const PointKeyBytes = 32

// MaxPackedCoord is the largest burst length, way count or application index
// a PointKey can hold.
const MaxPackedCoord = 255

const pointKeyHeader = 3

// MemKey packs the schedule as the shared-cache point it keys like.
func (s Schedule) MemKey() (PointKey, error) { return PackPoint(nil, false, s, nil) }

// MemKey packs the joint point; a shared point packs like its schedule.
func (j JointSchedule) MemKey() (PointKey, error) { return PackPoint(nil, false, j.M, j.W) }

// PackPoint packs a point's coordinates into a PointKey: the core subset
// apps (only when core is set; a core point with no applications still
// differs from every single-core point), the schedule m and the partition
// w. It fails when the point does not fit the key or a coordinate lies
// outside [0, MaxPackedCoord].
func PackPoint(apps []int, core bool, m Schedule, w Ways) (PointKey, error) {
	var k PointKey
	if !core && len(apps) > 0 {
		return k, fmt.Errorf("sched: point key: %d application indices on a single-core point", len(apps))
	}
	if n := pointKeyHeader + len(apps) + len(m) + len(w); n > PointKeyBytes {
		return k, fmt.Errorf("sched: point key: %d apps, %d bursts and %d ways exceed the %d-byte key",
			len(apps), len(m), len(w), PointKeyBytes)
	}
	k[0], k[1] = byte(len(m)), byte(len(w))
	if core {
		k[2] = byte(len(apps) + 1)
	}
	at := pointKeyHeader
	for _, part := range [3][]int{apps, m, w} {
		for _, v := range part {
			if v < 0 || v > MaxPackedCoord {
				return PointKey{}, fmt.Errorf("sched: point key: coordinate %d outside [0, %d]", v, MaxPackedCoord)
			}
			k[at] = byte(v)
			at++
		}
	}
	return k, nil
}
