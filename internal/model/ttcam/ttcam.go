// Package ttcam is a compatibility shim over internal/model/tcam, where
// the model (both TCAM variants) now lives. It stays only because the
// bench/ module — which changes to this module may not edit — trains
// its bundles through ttcam.DefaultConfig, ttcam.Config and
// ttcam.Train. Nothing inside this module imports it; use the tcam
// package directly.
package ttcam

import (
	"tcam/internal/cuboid"
	"tcam/internal/model"
	"tcam/internal/model/tcam"
)

// Config is tcam.Config.
type Config = tcam.Config

// Model is tcam.Model.
type Model = tcam.Model

// DefaultConfig returns tcam.DefaultConfig (K1=60, K2=40).
func DefaultConfig() Config { return tcam.DefaultConfig() }

// Train is tcam.Train.
func Train(data *cuboid.Cuboid, cfg Config) (*Model, model.TrainStats, error) {
	return tcam.Train(data, cfg)
}
