// Package snapshot defines the self-describing checkpoint envelope the
// simulator writes and restores. The envelope is versioned JSON: a magic
// string and format version guard against feeding the loader a foreign or
// stale file, and a compatibility fingerprint (Meta) ties a checkpoint to
// the run configuration that produced it — scheme, fleet, workload, and
// the control knobs that change event timing. The simulation-state payload
// itself is opaque to this package (the sim layer owns its schema); it is
// carried as raw JSON so the envelope can be checked without decoding it.
//
// Encoding is plain encoding/json: float64 values marshal in
// shortest-round-trip form and struct fields in declaration order, so
// writing the same state twice produces byte-identical files — the
// property the snapshot auditor's save→load→save comparison and the
// committed golden fixture both rely on.
package snapshot

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// Magic identifies a dvmpsim checkpoint file.
const Magic = "dvmps-checkpoint"

// Version is the current checkpoint format version. Bump it whenever the
// envelope or the sim state schema changes shape or meaning; the loader
// rejects any other version. Version 2 added the energy meter's fleet
// draw and per-PM draws and since-times; a version-1 meter cannot be
// resumed bit-exactly.
const Version = 2

// Meta is the compatibility fingerprint of the run configuration. A
// checkpoint may only be restored under a configuration whose Meta is
// identical: resuming a run under a different scheme, fleet, workload, or
// control cadence would not crash, it would silently produce a trace that
// diverges from the interrupted run — exactly the failure mode checkpoints
// exist to prevent.
type Meta struct {
	Scheme          string  `json:"scheme"`
	FleetSize       int     `json:"fleet_size"`
	ClassDigest     string  `json:"class_digest"`
	Requests        int     `json:"requests"`
	WorkloadDigest  string  `json:"workload_digest"`
	ControlPeriod   float64 `json:"control_period"`
	MeterBin        float64 `json:"meter_bin"`
	TimedMigrations bool    `json:"timed_migrations"`
	Spare           bool    `json:"spare"`
	Failures        bool    `json:"failures"`
}

// File is the checkpoint envelope.
type File struct {
	Magic   string          `json:"magic"`
	Version int             `json:"version"`
	Meta    Meta            `json:"meta"`
	State   json.RawMessage `json:"state"`
}

// Write marshals state and wraps it in a versioned envelope on w.
func Write(w io.Writer, meta Meta, state any) error {
	raw, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("snapshot: encode state: %w", err)
	}
	out, err := json.Marshal(File{Magic: Magic, Version: Version, Meta: meta, State: raw})
	if err != nil {
		return fmt.Errorf("snapshot: encode envelope: %w", err)
	}
	out = append(out, '\n')
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("snapshot: write: %w", err)
	}
	return nil
}

// Read decodes the envelope from r and validates magic and version. The
// state payload is returned raw for the owner to decode.
func Read(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	if f.Magic != Magic {
		return nil, fmt.Errorf("snapshot: not a checkpoint file (magic %q, want %q)", f.Magic, Magic)
	}
	if f.Version != Version {
		return nil, fmt.Errorf("snapshot: format version %d not supported (this build reads version %d)", f.Version, Version)
	}
	if len(f.State) == 0 {
		return nil, fmt.Errorf("snapshot: envelope carries no state")
	}
	return &f, nil
}

// CheckMeta verifies the checkpoint was produced by a run configuration
// fingerprint-identical to want.
func (f *File) CheckMeta(want Meta) error {
	if f.Meta == want {
		return nil
	}
	return fmt.Errorf("snapshot: checkpoint is for a different run configuration:\n  checkpoint: %+v\n  current:    %+v", f.Meta, want)
}

// ClassDigest fingerprints the fleet: every PM's ID and its class's full
// parameter set, in fleet order. Two datacenters digest equal exactly when
// the simulation cannot tell them apart at construction time.
func ClassDigest(dc *cluster.Datacenter) string {
	h := fnv.New64a()
	for _, pm := range dc.PMs() {
		c := pm.Class
		fmt.Fprintf(h, "%d|%s|%v|%g|%g|%g|%g|%g|%g\n",
			pm.ID, c.Name, c.Capacity, c.CreationTime, c.MigrationTime,
			c.OnOffOverhead, c.ActivePower, c.IdlePower, c.Reliability)
	}
	fmt.Fprintf(h, "rmin=%v\n", dc.RMinShared())
	return fmt.Sprintf("%016x", h.Sum64())
}

// WorkloadDigest fingerprints the request sequence the run was built
// from. VM IDs are assigned by request index, so an identical digest means
// identical arrival events.
func WorkloadDigest(reqs []workload.Request) string {
	h := fnv.New64a()
	for _, r := range reqs {
		fmt.Fprintf(h, "%d|%d|%g|%g|%g|%g|%g\n",
			r.JobID, r.Index, r.Submit, r.CPUCores, r.MemoryGB, r.EstimatedRunTime, r.RunTime)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
