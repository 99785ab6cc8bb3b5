// The benchmark is a module of its own so that it builds from its own
// directory and never rides along in the root module's tier-1 loop.
// The tcam/ prefix keeps tcam/internal/... importable.
module tcam/bench

go 1.22

require tcam v0.0.0

replace tcam => ../
