package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"pdr/internal/motion"
)

// snapshotMagic identifies and versions the checkpoint format.
const snapshotMagic = "pdr-checkpoint-v1"

// snapshot is the persisted server state. The summary structures (density
// histogram, Chebyshev surfaces, index) are not serialized: every live
// movement's remaining contribution over the window [now, now+H] is a pure
// function of (state, now), so replaying the live set reconstructs them
// exactly (bit-for-bit for the histogram and coefficients).
type snapshot struct {
	Magic  string
	Config Config
	Now    motion.Tick
	States []motion.State
}

// Save writes a checkpoint of the server to w. The checkpoint captures the
// configuration, the clock, and every live movement; Restore rebuilds an
// equivalent server from it.
func (s *Server) Save(w io.Writer) error {
	s.rlockAll()
	defer s.runlockAll()
	return gob.NewEncoder(w).Encode(snapshot{
		Magic:  snapshotMagic,
		Config: s.cfg,
		Now:    s.Now(),
		States: s.liveStatesLocked(), // ordered by ID: deterministic output
	})
}

// Restore rebuilds a server from a checkpoint written by Save. The restored
// server answers every query identically to the original at its checkpoint
// time.
func Restore(r io.Reader) (*Server, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	if snap.Magic != snapshotMagic {
		return nil, fmt.Errorf("core: not a pdr checkpoint (magic %q)", snap.Magic)
	}
	s, err := NewServer(snap.Config)
	if err != nil {
		return nil, fmt.Errorf("core: restoring config: %w", err)
	}
	if err := s.Tick(snap.Now, nil); err != nil {
		return nil, err
	}
	if err := s.Load(snap.States); err != nil {
		return nil, fmt.Errorf("core: replaying checkpoint states: %w", err)
	}
	return s, nil
}
