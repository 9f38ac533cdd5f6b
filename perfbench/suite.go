package main

import (
	"bytes"
	"fmt"
	"time"

	"decoupling/internal/dcrypto/blindrsa"
	"decoupling/internal/experiments"
)

// suitePasses is how many full E1–E16 passes the suite probe makes.
const suitePasses = 3

// suiteProbe runs full E1–E16 passes with experiments.Runner on
// workers goroutines, after a traced run's measured phases. It sets
// experiments.pass_ms, the median wall time of a pass, and
// experiments.E<n>.wall_ms, the median Result.WallElapsed over the
// passes. It records a problem when an experiment fails or a pass
// renders other bytes than the first.
//
// The suite is a probe, not a workload: on a shared 2-core host the
// wall time of a pass drifts by a quarter or more from one run to the
// next, which no end-to-end bound can absorb (see README.md).
func suiteProbe(workers int, o *outcome) {
	runner := &experiments.Runner{Workers: workers}
	exps := experiments.All()
	perExp := map[string][]float64{}
	var walls []float64
	var first []byte
	for pass := 1; pass <= suitePasses; pass++ {
		began := time.Now()
		results := runner.Run(exps)
		walls = append(walls, ms(time.Since(began)))
		var report bytes.Buffer
		for _, r := range results {
			if r.Err != nil || !r.Result.Pass {
				o.problem("suite pass %d: %s failed: %v", pass, r.ID, r.Err)
				continue
			}
			report.WriteString(r.Result.Render())
			perExp[r.ID] = append(perExp[r.ID], ms(r.Result.WallElapsed))
		}
		if first == nil {
			first = report.Bytes()
		} else if !bytes.Equal(first, report.Bytes()) {
			o.problem("suite pass %d: rendered results differ from pass 1", pass)
		}
	}
	o.layer["experiments.pass_ms"] = median(walls)
	for i := 1; i <= 16; i++ {
		o.layer[fmt.Sprintf("experiments.E%d.wall_ms", i)] = median(perExp[fmt.Sprintf("E%d", i)])
	}
}

// blindSignProbe is the median time of one blind RSA signature with a
// 2048-bit key, the operation on the suite's critical path (E5).
func blindSignProbe() (float64, error) {
	key, err := blindrsa.GenerateKey(2048)
	if err != nil {
		return 0, err
	}
	blinded, _, err := blindrsa.Blind(&key.PublicKey, []byte("perfbench probe"))
	if err != nil {
		return 0, err
	}
	v := make([]float64, 25)
	for i := range v {
		t0 := time.Now()
		if _, err := blindrsa.BlindSign(key, blinded); err != nil {
			return 0, err
		}
		v[i] = us(time.Since(t0))
	}
	return median(v), nil
}
