// Package wire defines the JSON-lines workload interchange format shared by
// the pdrgen and pdrquery commands: initial object states, tick markers, and
// insert/delete location updates, one record per line.
package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"pdr/internal/geom"
	"pdr/internal/motion"
)

// Kind values for Record.Kind.
const (
	KindState  = "state"
	KindTick   = "tick"
	KindInsert = "insert"
	KindDelete = "delete"
)

// Record is one line of a workload file.
type Record struct {
	Kind string  `json:"kind"`
	Tick int64   `json:"tick"`
	ID   uint64  `json:"id,omitempty"`
	X    float64 `json:"x,omitempty"`
	Y    float64 `json:"y,omitempty"`
	VX   float64 `json:"vx,omitempty"`
	VY   float64 `json:"vy,omitempty"`
	Ref  int64   `json:"ref,omitempty"`
}

// FromState builds a record of the given kind from a motion state.
func FromState(kind string, s motion.State, at motion.Tick) Record {
	return Record{
		Kind: kind, Tick: int64(at), ID: uint64(s.ID),
		X: s.Pos.X, Y: s.Pos.Y, VX: s.Vel.X, VY: s.Vel.Y, Ref: int64(s.Ref),
	}
}

// State reconstructs the motion state carried by the record.
func (r Record) State() motion.State {
	return motion.State{
		ID:  motion.ObjectID(r.ID),
		Pos: geom.Point{X: r.X, Y: r.Y},
		Vel: geom.Vec{X: r.VX, Y: r.VY},
		Ref: motion.Tick(r.Ref),
	}
}

// Update converts an insert/delete record to an update.
func (r Record) Update() (motion.Update, error) {
	switch r.Kind {
	case KindInsert:
		return motion.Update{Kind: motion.Insert, State: r.State(), At: motion.Tick(r.Tick)}, nil
	case KindDelete:
		return motion.Update{Kind: motion.Delete, State: r.State(), At: motion.Tick(r.Tick)}, nil
	default:
		return motion.Update{}, fmt.Errorf("wire: record kind %q is not an update", r.Kind)
	}
}

// Writer streams records as JSON lines.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriterSize(w, 1<<20)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record.
func (w *Writer) Write(r Record) error { return w.enc.Encode(r) }

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Server is the subset of the PDR engine a replay drives (satisfied by
// *core.Server).
type Server interface {
	Load(states []motion.State) error
	Tick(now motion.Tick, updates []motion.Update) error
}

// Replay reads a workload stream and drives srv: initial states are bulk
// loaded, then each tick's updates are applied. It returns the number of
// records processed.
func Replay(r io.Reader, srv Server) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		states  []motion.State
		pending []motion.Update
		now     motion.Tick
		loaded  bool
		count   int
	)
	flush := func() error {
		if !loaded {
			if err := srv.Load(states); err != nil {
				return err
			}
			loaded = true
		}
		if err := srv.Tick(now, pending); err != nil {
			return err
		}
		pending = pending[:0]
		return nil
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, ok := decodeRecord(line)
		if !ok {
			if err := json.Unmarshal(line, &rec); err != nil {
				return count, fmt.Errorf("wire: line %d: %w", count+1, err)
			}
		}
		count++
		switch rec.Kind {
		case KindState:
			states = append(states, rec.State())
		case KindTick:
			if err := flush(); err != nil {
				return count, err
			}
			now = motion.Tick(rec.Tick)
		case KindInsert, KindDelete:
			u, err := rec.Update()
			if err != nil {
				return count, err
			}
			pending = append(pending, u)
		default:
			return count, fmt.Errorf("wire: unknown record kind %q", rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return count, err
	}
	if err := flush(); err != nil {
		return count, err
	}
	return count, nil
}
