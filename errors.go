package distmat

import (
	"errors"
	"fmt"
)

// Sentinel errors returned by the public API. Match them with errors.Is;
// the wrapped message carries the offending parameter and value.
var (
	// ErrInvalidConfig reports a Config that fails validation (site count,
	// ε range, row dimension, copies, window, or quantile universe).
	ErrInvalidConfig = errors.New("distmat: invalid config")

	// ErrUnknownProtocol reports a protocol name absent from the registry.
	// The message lists the registered names.
	ErrUnknownProtocol = errors.New("distmat: unknown protocol")

	// ErrWrongKind reports an operation that does not apply to a session's
	// kind (e.g. ProcessRows on a heavy-hitters session).
	ErrWrongKind = errors.New("distmat: operation does not apply to this session kind")

	// ErrDimensionMismatch reports a row whose length differs from the
	// session's configured dimension d.
	ErrDimensionMismatch = errors.New("distmat: row dimension mismatch")

	// ErrInvalidItem reports a stream item a session cannot ingest: an
	// item weight that is not finite and positive, a quantile value outside
	// [0, 2^Bits), or a matrix row whose squared norm is not finite (NaN,
	// ±Inf, or entries large enough to overflow ‖row‖²).
	ErrInvalidItem = errors.New("distmat: invalid stream item")

	// ErrInvalidQuery reports an out-of-range query parameter, e.g. a
	// heavy-hitter threshold or quantile rank outside its domain.
	ErrInvalidQuery = errors.New("distmat: invalid query")

	// ErrInvalidSite reports an explicit site index outside [0, Sites).
	ErrInvalidSite = errors.New("distmat: site out of range")

	// ErrSessionClosed reports ingestion on a session after Close. Closed
	// sessions still answer queries; only ingestion is rejected.
	ErrSessionClosed = errors.New("distmat: session is closed")

	// ErrNotShardable reports a configuration that cannot run sharded
	// (Config.Shards > 1). Only windowed matrix sessions remain
	// unshardable: sub-window boundaries are counted per shard, so
	// sharding would break the coverage guarantee. Matrix sessions shard
	// through merge-on-query Gram addition; heavy-hitters and quantile
	// sessions through merge-on-query summary accumulation (their
	// per-shard εW_k bounds sum to εW).
	ErrNotShardable = errors.New("distmat: configuration is not shardable")

	// ErrNotPersistable reports a session whose state cannot be saved:
	// the underlying tracker is randomized or windowed (RNG and window
	// phase cannot be re-seeded mid-stream), wrapped around a custom
	// implementation, or bound to a custom Assigner. SaveState documents
	// which registered protocols are persistable.
	ErrNotPersistable = errors.New("distmat: session is not persistable")
)

// invalidConfig wraps a detailed validation failure in ErrInvalidConfig.
func invalidConfig(detail error) error {
	return fmt.Errorf("%w: %w", ErrInvalidConfig, detail)
}

// invalidConfigf wraps a formatted validation failure in ErrInvalidConfig.
func invalidConfigf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidConfig, fmt.Sprintf(format, args...))
}

// notShardablef wraps a formatted explanation in ErrNotShardable.
func notShardablef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrNotShardable, fmt.Sprintf(format, args...))
}

// unknownProtocol builds an ErrUnknownProtocol listing the registered names.
func unknownProtocol(kind, name string, known []string) error {
	return fmt.Errorf("%w: %s protocol %q (registered: %v)", ErrUnknownProtocol, kind, name, known)
}
