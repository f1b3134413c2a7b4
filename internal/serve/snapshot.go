// Registry snapshot/restore: the warm half of a rolling fleet restart.
//
// A restarted worker loses exactly two kinds of expensive state: the
// compiled QuantPlan of every registered model and the warm (model, seed)
// sampled-copy cache. Both are pure functions of durable inputs — the plan
// of the trained weights, each cached copy of (weights, seed) through
// SampleStream — so a snapshot never stores compiled or sampled bits. It
// stores the model set (weights + provenance) and the list of hot seeds,
// and restore re-derives the rest through the exact code paths a live
// request would use. Responses after a restore are therefore byte-identical
// to responses before it by construction; the snapshot only moves *when*
// the compile/sample cost is paid (at boot, off the request path) — never
// what any request computes.
//
// The on-disk format is a versioned JSON envelope with a SHA-256 checksum
// over the payload bytes. A snapshot is a warm-start cache, not a source of
// truth: any mismatch — magic, version, checksum, truncation, malformed
// weights — rejects the whole file with an error and no registry mutation,
// so callers fall back to a cold start instead of serving half-restored
// state.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/nn"
)

const (
	// SnapshotMagic identifies a tnserve registry snapshot document.
	SnapshotMagic = "tnserve-snapshot"
	// SnapshotVersion is the schema version this build writes and accepts.
	// Decoders accept exactly this version: an older or newer file falls
	// back to a cold start rather than being half-understood.
	SnapshotVersion = 1
	// MaxSnapshotSeeds bounds one model's hot-seed list. A corrupt or
	// hostile length cannot turn restore into an unbounded warm loop.
	MaxSnapshotSeeds = 4096
)

// snapshotEnvelope is the outer on-disk document. Checksum is the SHA-256
// of the exact Payload bytes, so truncation and bit corruption anywhere in
// the payload are detected before any of it is interpreted.
type snapshotEnvelope struct {
	Magic    string          `json:"magic"`
	Version  int             `json:"version"`
	Checksum string          `json:"checksum_sha256"`
	Payload  json.RawMessage `json:"payload"`
}

// snapshotPayload is the checksummed content: the model set, sorted by name
// so equal registries snapshot to equal bytes.
type snapshotPayload struct {
	Models []snapshotModel `json:"models"`
}

// snapshotModel is one registered model: its serialized trained network
// (the nn JSON schema — weights round-trip exactly through float64 JSON),
// optional training provenance, and the warm-cache seeds that were hot at
// snapshot time, sorted ascending.
type snapshotModel struct {
	Name     string          `json:"name"`
	Meta     *core.ModelMeta `json:"meta,omitempty"`
	Net      json.RawMessage `json:"net"`
	HotSeeds []uint64        `json:"hot_seeds,omitempty"`
}

// decodedModel is one snapshot model after full validation.
type decodedModel struct {
	name     string
	meta     *core.ModelMeta
	net      *nn.Network
	hotSeeds []uint64
}

// SnapshotInfo summarizes one snapshot document (written or restored).
type SnapshotInfo struct {
	// Models and Seeds count the snapshot's model set and hot seeds.
	Models int `json:"models"`
	Seeds  int `json:"seeds"`
	// Bytes is the full document size; Checksum the payload SHA-256.
	Bytes    int    `json:"bytes"`
	Checksum string `json:"checksum_sha256"`
	// Path is set by the file-level helpers and the admin endpoint.
	Path string `json:"path,omitempty"`
}

// EncodeSnapshot serializes the registry's current warm state: every
// registered model plus its currently cached sample seeds.
func (r *Registry) EncodeSnapshot() ([]byte, SnapshotInfo, error) {
	var payload snapshotPayload
	info := SnapshotInfo{}
	for _, name := range r.Names() {
		e, ok := r.Get(name)
		if !ok {
			continue
		}
		var buf bytes.Buffer
		if err := e.Net.Write(&buf); err != nil {
			return nil, SnapshotInfo{}, fmt.Errorf("serve: snapshot model %q: %w", name, err)
		}
		seeds := e.CacheKeys()
		payload.Models = append(payload.Models, snapshotModel{
			Name:     name,
			Meta:     e.Meta,
			Net:      json.RawMessage(bytes.TrimSpace(buf.Bytes())),
			HotSeeds: seeds,
		})
		info.Models++
		info.Seeds += len(seeds)
	}
	rawPayload, err := json.Marshal(&payload)
	if err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("serve: encode snapshot payload: %w", err)
	}
	sum := sha256.Sum256(rawPayload)
	env := snapshotEnvelope{
		Magic:    SnapshotMagic,
		Version:  SnapshotVersion,
		Checksum: hex.EncodeToString(sum[:]),
		Payload:  rawPayload,
	}
	raw, err := json.Marshal(&env)
	if err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("serve: encode snapshot: %w", err)
	}
	raw = append(raw, '\n')
	info.Bytes = len(raw)
	info.Checksum = env.Checksum
	return raw, info, nil
}

// decodeSnapshot validates a snapshot document end to end — envelope shape,
// magic, version, checksum, and every model's network — before anything is
// applied. Returning an error leaves the caller free to cold-start; it
// never panics on malformed input (the fuzz target pins this).
func decodeSnapshot(raw []byte) ([]decodedModel, SnapshotInfo, error) {
	var env snapshotEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("serve: snapshot: not a snapshot envelope: %w", err)
	}
	if env.Magic != SnapshotMagic {
		return nil, SnapshotInfo{}, fmt.Errorf("serve: snapshot: bad magic %q", env.Magic)
	}
	if env.Version != SnapshotVersion {
		return nil, SnapshotInfo{}, fmt.Errorf("serve: snapshot: version %d, this build reads %d", env.Version, SnapshotVersion)
	}
	sum := sha256.Sum256(env.Payload)
	if got := hex.EncodeToString(sum[:]); got != env.Checksum {
		return nil, SnapshotInfo{}, fmt.Errorf("serve: snapshot: checksum mismatch (corrupted or truncated): payload %s, envelope %s", got, env.Checksum)
	}
	var payload snapshotPayload
	if err := json.Unmarshal(env.Payload, &payload); err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("serve: snapshot: decode payload: %w", err)
	}
	info := SnapshotInfo{Bytes: len(raw), Checksum: env.Checksum}
	seen := make(map[string]bool, len(payload.Models))
	models := make([]decodedModel, 0, len(payload.Models))
	for i, m := range payload.Models {
		if m.Name == "" {
			return nil, SnapshotInfo{}, fmt.Errorf("serve: snapshot: model %d has no name", i)
		}
		if seen[m.Name] {
			return nil, SnapshotInfo{}, fmt.Errorf("serve: snapshot: duplicate model %q", m.Name)
		}
		seen[m.Name] = true
		if len(m.HotSeeds) > MaxSnapshotSeeds {
			return nil, SnapshotInfo{}, fmt.Errorf("serve: snapshot: model %q carries %d hot seeds (limit %d)", m.Name, len(m.HotSeeds), MaxSnapshotSeeds)
		}
		net, err := nn.Read(bytes.NewReader(m.Net))
		if err != nil {
			return nil, SnapshotInfo{}, fmt.Errorf("serve: snapshot: model %q: %w", m.Name, err)
		}
		models = append(models, decodedModel{name: m.Name, meta: m.Meta, net: net, hotSeeds: m.HotSeeds})
		info.Models++
		info.Seeds += len(m.HotSeeds)
	}
	return models, info, nil
}

// RestoreSnapshot applies a snapshot document: models not yet registered
// are registered (compiling their plans), and every hot seed is warmed
// through the same Sampled path a live request takes — so the copies a
// rejoined replica serves are the ones it would have derived on demand,
// just derived before traffic arrives. Models already registered (e.g.
// loaded from files at boot) are not re-registered; their hot seeds are
// still warmed. The whole document is validated before any mutation, so a
// failed restore leaves the registry exactly as it was.
func (r *Registry) RestoreSnapshot(raw []byte) (SnapshotInfo, error) {
	models, info, err := decodeSnapshot(raw)
	if err != nil {
		return SnapshotInfo{}, err
	}
	for _, m := range models {
		e, ok := r.Get(m.name)
		if !ok {
			if e, err = r.Register(m.name, m.net, m.meta); err != nil {
				return SnapshotInfo{}, fmt.Errorf("serve: restore snapshot: %w", err)
			}
		}
		for _, seed := range m.hotSeeds {
			e.Sampled(seed)
		}
	}
	return info, nil
}

// WriteSnapshotFile writes the snapshot atomically (temp file + rename in
// the target directory), so a crash mid-write can never leave a truncated
// snapshot where the next boot would read it — the checksum would catch it,
// but a half-written file should not even exist. The temp file is synced
// before the rename and the directory after it, so a power loss cannot
// surface a renamed but empty file or lose the rename itself.
func (r *Registry) WriteSnapshotFile(path string) (SnapshotInfo, error) {
	raw, info, err := r.EncodeSnapshot()
	if err != nil {
		return SnapshotInfo{}, err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("serve: write snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return SnapshotInfo{}, fmt.Errorf("serve: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return SnapshotInfo{}, fmt.Errorf("serve: write snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return SnapshotInfo{}, fmt.Errorf("serve: write snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return SnapshotInfo{}, fmt.Errorf("serve: write snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return SnapshotInfo{}, fmt.Errorf("serve: write snapshot: %w", err)
	}
	info.Path = path
	return info, nil
}

// syncDir flushes a directory's entries (a completed rename) to stable
// storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// RestoreSnapshotFile restores from path. The caller decides what a failure
// means; tnserve logs it and cold-starts.
func (r *Registry) RestoreSnapshotFile(path string) (SnapshotInfo, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("serve: read snapshot: %w", err)
	}
	info, err := r.RestoreSnapshot(raw)
	if err != nil {
		return SnapshotInfo{}, err
	}
	info.Path = path
	return info, nil
}
