package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
)

// Releases before segment files stored one JSON envelope per record at
// root/<hh>/<sha256(key)>.json, hh being the first hash byte. Those files
// are read-only input now: Get falls back to them on an index miss, Scrub
// classifies them and repair quarantines the bad ones, and nothing writes
// them. A store without shard directories never touches this path.

// envelope is the legacy per-file record. Sum (v2) is the hex sha256 of
// the payload bytes exactly as they sit in the file; v1 envelopes have no
// Sum.
type envelope struct {
	V       int             `json:"v"`
	Key     string          `json:"key"`
	Sum     string          `json:"sum,omitempty"`
	Payload json.RawMessage `json:"payload"`
}

// payloadSum is the legacy v2 checksum: hex sha256 over the payload bytes.
func payloadSum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// isShardDir reports a legacy shard directory name: two lowercase hex
// digits.
func isShardDir(name string) bool {
	const hexDigits = "0123456789abcdef"
	return len(name) == 2 && strings.IndexByte(hexDigits, name[0]) >= 0 && strings.IndexByte(hexDigits, name[1]) >= 0
}

// legacyPath is a key's legacy content address.
func (s *Store) legacyPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(s.root, h[:2], h+".json")
}

// legacyGet serves key from its legacy file: absent reads as a plain miss,
// and any envelope that fails its checks as a counted corrupt miss.
func (s *Store) legacyGet(key string) ([]byte, bool) {
	data, err := os.ReadFile(s.legacyPath(key))
	if err != nil {
		return nil, false
	}
	var env envelope
	if json.Unmarshal(data, &env) != nil || env.Key != key ||
		env.V != legacyVersion && (env.V != Version || payloadSum(env.Payload) != env.Sum) {
		s.corrupt.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return env.Payload, true
}

// countLegacy counts the legacy record files.
func (s *Store) countLegacy() int64 {
	var n int64
	entries, _ := os.ReadDir(s.root)
	for _, e := range entries {
		if !e.IsDir() || !isShardDir(e.Name()) {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(s.root, e.Name()))
		for _, f := range files {
			if filepath.Ext(f.Name()) == ".json" {
				n++
			}
		}
	}
	return n
}

// scrubLegacyShard classifies every record file of one legacy shard
// directory and, with repair, moves the bad ones to
// <root>/quarantine/<shard>-<file>.
func (s *Store) scrubLegacyShard(shard string, repair bool, rep *ScrubReport) {
	files, err := os.ReadDir(filepath.Join(s.root, shard))
	if err != nil {
		return
	}
	for _, f := range files {
		name := f.Name()
		if filepath.Ext(name) != ".json" {
			continue
		}
		rep.Scanned++
		v := classifyLegacy(filepath.Join(s.root, shard, name), name)
		rep.count(v)
		if repair && v != recordOK && v != recordLegacy && s.quarantineLegacy(shard, name) {
			rep.Quarantined++
		}
	}
}

// classifyLegacy applies Get's checks to one legacy file, plus the one
// check Get cannot make (it starts from a key): that the file lives under
// its own key's content address.
func classifyLegacy(path, name string) verdict {
	data, err := os.ReadFile(path)
	if err != nil {
		return recordCorrupt
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil || env.Key == "" {
		return recordCorrupt
	}
	sum := sha256.Sum256([]byte(env.Key))
	if name != hex.EncodeToString(sum[:])+".json" {
		return recordCorrupt // moved or renamed into another record's address
	}
	switch env.V {
	case legacyVersion:
		return recordLegacy
	case Version:
		if payloadSum(env.Payload) != env.Sum {
			return recordSumMismatch
		}
		return recordOK
	}
	return recordCorrupt
}

// quarantineLegacy moves one bad legacy file out of the read path, keeping
// the shard prefix in its new name so distinct shards cannot collide.
func (s *Store) quarantineLegacy(shard, name string) bool {
	qdir := filepath.Join(s.root, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return false
	}
	return os.Rename(filepath.Join(s.root, shard, name), filepath.Join(qdir, shard+"-"+name)) == nil
}
