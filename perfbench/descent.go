package main

import (
	"fmt"
	"time"

	distmat "repro"
	"repro/internal/matrix"
)

// The layer descent replays a traced run's acknowledged batches, in ack
// order, down the public entry points below the transport: the service
// Tracker, the facade Session, the registry-built core tracker, and the
// kernel's block update. Each layer is a separate instance fed the same
// batches, and the calls for one batch run back to back, so the layers
// of a batch see the same machine and their per-batch differences are
// self times.

// timed runs fn and, when record is set, records it as one span.
func timed(rec *recorder, layer string, id int64, record bool, fn func() error) error {
	start := time.Now()
	err := fn()
	if record {
		rec.record(layer, id, start, time.Now(), 0)
	}
	return err
}

// matrixLayers are the layers below the service on the matrix path.
type matrixLayers struct {
	sess    *distmat.Session
	core    distmat.MatrixTracker
	batch   interface{ ProcessRows(int, [][]float64) }
	grams   map[int]*matrix.Sym // the kernel's per-site Grams
	scratch *matrix.Dense
	d       int
	updates int64
}

func newMatrixLayers(d int, opts []distmat.Option) (*matrixLayers, error) {
	sess, err := distmat.NewMatrixSession("p2", opts...)
	if err != nil {
		return nil, err
	}
	core, err := distmat.NewMatrixByName("p2", distmat.NewConfig(opts...))
	if err != nil {
		sess.Close()
		return nil, err
	}
	batch, ok := core.(interface{ ProcessRows(int, [][]float64) })
	if !ok {
		sess.Close()
		return nil, fmt.Errorf("p2 tracker %T has no batch path", core)
	}
	return &matrixLayers{sess: sess, core: core, batch: batch, grams: map[int]*matrix.Sym{}, scratch: matrix.NewDense(0, 0), d: d}, nil
}

// apply feeds one batch to the session, the core tracker and the kernel.
func (l *matrixLayers) apply(rec *recorder, id int64, site int, rows [][]float64, record bool) error {
	if err := timed(rec, "session.batch", id, record, func() error { return l.sess.ProcessRowsAt(site, rows) }); err != nil {
		return err
	}
	timed(rec, "core.batch", id, record, func() error { l.batch.ProcessRows(site, rows); return nil })
	g := l.grams[site]
	if g == nil {
		g = matrix.NewSym(l.d)
		l.grams[site] = g
	}
	timed(rec, "kernel.addblock", id, record, func() error { g.AddBlock(rows, l.scratch); return nil })
	l.updates += int64(len(rows))
	return nil
}

// descent reports the core tracker's protocol messages over every
// replayed update.
func (l *matrixLayers) descent() descent {
	return descent{coreMessages: l.core.Stats().Total(), coreUpdates: l.updates}
}

func (l *matrixLayers) close() { l.sess.Close() }
