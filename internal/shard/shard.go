// Package shard is a compatibility shim for the frozen benchmark module
// (bench/layers), which still calls shard.New. The engine is one
// core.Server; nothing outside bench/ may import this package, and the next
// benchmark change should move bench/layers to core.NewServer and delete it.
package shard

import "pdr/internal/core"

// Engine is the one engine.
type Engine = core.Server

// New returns core.NewServer(cfg). shards is ignored: the engine has one
// partition.
func New(cfg core.Config, shards int) (*Engine, error) {
	return core.NewServer(cfg)
}
