// Package shard is a compatibility shim: the sharded engine is core.Server
// with Config.Shards set, and everything about it is documented there. The
// shim exists only because the frozen benchmark module (bench/layers) still
// calls shard.New; nothing outside bench/ may import it, and the next
// benchmark change should move bench/layers to core.NewServer and delete
// this package.
package shard

import "pdr/internal/core"

// Engine is the one engine.
type Engine = core.Server

// New is core.NewServer with cfg.Shards set to shards.
func New(cfg core.Config, shards int) (*Engine, error) {
	cfg.Shards = shards
	return core.NewServer(cfg)
}
