package main

import (
	"errors"
	"fmt"
)

// check applies the correctness checks every run makes, logging each
// failure:
//
//   - every repetition's canonical result has the same digest, and that
//     digest matches the expected one (--expect-digest, else the one
//     recorded in meta.json for this workload, scale and seed);
//   - the fleet's canonical JSON has the same SHA-256 as that of a local
//     Campaign.Run of the same spec, computed outside the timed region;
//   - no witness trace violated the model and no job was dead-lettered;
//   - the merged iteration total equals the spec budget.
func (b *bench) check(reps []*rep, extra ...error) error {
	errs := append([]error(nil), extra...)
	got := reps[0].digest
	key := digestKey(b.cfg.workload.name, b.cfg.scale, b.cfg.seed)
	fmt.Fprintf(b.log, "perfbench: digest %s %s\n", key, got)
	for i, r := range reps {
		if r.digest != got {
			errs = append(errs, fmt.Errorf("repetition %d digest %s differs from %s", i, r.digest, got))
		}
		if r.iters != b.budget {
			errs = append(errs, fmt.Errorf("repetition %d merged %d iterations, budget %d", i, r.iters, b.budget))
		}
		if r.violations != 0 {
			errs = append(errs, fmt.Errorf("repetition %d: %d witness-trace violations", i, r.violations))
		}
		if r.deadLetters != 0 {
			errs = append(errs, fmt.Errorf("repetition %d: %d dead-lettered jobs", i, r.deadLetters))
		}
	}
	want := b.cfg.expectDigest
	if want == "" {
		want = meta.Digests[key]
	}
	if want != "" && got != want {
		errs = append(errs, fmt.Errorf("canonical digest %s, expected %s", got, want))
	}
	if b.cfg.workload.fleet {
		ref, err := b.reference()
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("local reference run: %w", err))
		case digest(ref) != got:
			errs = append(errs, fmt.Errorf("fleet canonical JSON differs from the local run (digest %s vs %s)", got, digest(ref)))
		}
	}
	for _, err := range errs {
		fmt.Fprintf(b.log, "perfbench: check failed: %v\n", err)
	}
	return errors.Join(errs...)
}
