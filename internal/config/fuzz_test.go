package config

import (
	"bytes"
	"testing"
	"time"

	"stordep/internal/casestudy"
	"stordep/internal/core"
	"stordep/internal/device"
	"stordep/internal/failure"
)

// FuzzUnmarshal checks the decoder never panics on arbitrary input and
// that anything it accepts either validates cleanly or fails with a
// regular error — no crashes deeper in the pipeline.
func FuzzUnmarshal(f *testing.F) {
	for _, d := range casestudy.WhatIfDesigns() {
		data, err := Marshal(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workload":{"dataCap":"-5GB","avgAccessRate":"1MB/s","avgUpdateRate":"1MB/s"}}`))
	f.Add([]byte(`{"levels":[{"type":"mirror","mode":"sync","policy":{"accW":"1h","retCnt":1,"retW":"1h"}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Whatever decoded must round-trip without panicking; designs
		// that pass validation must also build.
		if _, err := Marshal(d); err != nil {
			if d.Workload != nil && d.Primary != nil {
				t.Fatalf("decoded design does not re-encode: %v", err)
			}
			return
		}
		if d.Validate() == nil {
			if _, err := core.Build(d); err != nil {
				// Build may still reject on device overload; that is a
				// regular error, not a bug.
				t.Logf("build rejected validated design: %v", err)
			}
		}
	})
}

// FuzzDistributionRoundTrip checks the failure/repair distribution
// config is lossless: any Reliability that validates must marshal
// (embedded in a design's device spec), unmarshal, and deep-equal the
// original. Means are quantized to whole seconds — the resolution
// units.FormatDuration is exact at, and the resolution every generator
// in this repo emits.
func FuzzDistributionRoundTrip(f *testing.F) {
	f.Add(int8(1), int64(time.Hour), 0.0, int8(2), int64(24*time.Hour), 1.5)
	f.Add(int8(2), int64(52*7*24*time.Hour), 0.7, int8(1), int64(8*time.Hour), 0.0)
	f.Add(int8(0), int64(0), 0.0, int8(0), int64(0), 0.0)
	f.Add(int8(2), int64(time.Second), 1e308, int8(1), int64(-5), 0.0)
	// A 200-year mean, whose hours once reparsed in exponent form.
	f.Add(int8(1), int64(200*52*7*24*time.Hour), 0.0, int8(1), int64(8*time.Hour), 0.0)
	// A 2051 s mean, whose fractional minutes once read back 1 ns short.
	f.Add(int8(1), int64(time.Hour), 0.0, int8(1), int64(2051*time.Second), 0.0)

	f.Fuzz(func(t *testing.T, fKind int8, fMean int64, fShape float64,
		rKind int8, rMean int64, rShape float64) {
		rel := device.Reliability{
			Failure: device.Distribution{
				Kind:  device.DistKind(fKind),
				Mean:  time.Duration(fMean).Truncate(time.Second),
				Shape: fShape,
			},
			Repair: device.Distribution{
				Kind:  device.DistKind(rKind),
				Mean:  time.Duration(rMean).Truncate(time.Second),
				Shape: rShape,
			},
		}
		if rel.Validate() != nil {
			return
		}
		d := casestudy.Baseline()
		d.Devices[0].Spec.Reliability = rel
		data, err := Marshal(d)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		d2, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("unmarshal our own encoding: %v", err)
		}
		got := d2.Devices[0].Spec.Reliability
		// The codec omits the ignored shape of exponential distributions;
		// normalize before comparing.
		want := rel
		if want.Failure.Kind == device.DistExponential {
			want.Failure.Shape = 0
		}
		if want.Repair.Kind == device.DistExponential {
			want.Repair.Shape = 0
		}
		if got != want {
			t.Fatalf("reliability did not round-trip:\n got %+v\nwant %+v", got, want)
		}
	})
}

// FuzzScenarioRoundTrip checks the correlated-event / operator-fault
// decoder never panics on arbitrary input and that its encoding is
// lossless: anything that decodes must re-encode to a JSON fixed point
// (encode∘decode is the identity on encoded forms — what correlated
// chaos repro replay relies on).
func FuzzScenarioRoundTrip(f *testing.F) {
	sample, err := MarshalScenario(
		[]failure.CorrEvent{
			{Kind: failure.CorrSharedDevice, Device: "lib-1", From: time.Hour, To: 3 * time.Hour, AbortInFlight: true},
			{Kind: failure.CorrRegion, Region: "west", From: 2 * time.Hour, To: 4 * time.Hour},
			{Kind: failure.CorrCorruption, Trigger: 42, From: time.Hour, To: 2 * time.Hour},
		},
		[]failure.OpFault{
			{Kind: failure.OpWrongRecovery, Object: "obj1", At: 48 * time.Hour, StaleBy: 12 * time.Hour},
			{Kind: failure.OpSilentNonWrite, Object: "obj2", Level: 2, From: 10 * time.Hour, To: 20 * time.Hour},
			{Kind: failure.OpMisdirectedRestore, Object: "obj1", WrongObject: "obj2", At: 72 * time.Hour},
		})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"events":[{"kind":"shared-device","from":"1h","to":"2h"}]}`))
	f.Add([]byte(`{"events":[{"kind":"corruption","trigger":7,"from":"1h","to":"2h"}]}`))
	f.Add([]byte(`{"opFaults":[{"kind":"wrong-recovery","object":"a","at":"1d","staleBy":"-1h"}]}`))
	f.Add([]byte(`{"opFaults":[{"kind":"misdirected-restore","object":"a","wrongObject":"a","at":"0s"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, faults, err := UnmarshalScenario(data)
		if err != nil {
			return
		}
		enc, err := MarshalScenario(events, faults)
		if err != nil {
			t.Fatalf("re-encoding decoded scenario failed: %v", err)
		}
		events2, faults2, err := UnmarshalScenario(enc)
		if err != nil {
			t.Fatalf("re-decoding our own encoding failed: %v", err)
		}
		enc2, err := MarshalScenario(events2, faults2)
		if err != nil {
			t.Fatalf("re-encoding round-tripped scenario failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
	})
}

// FuzzMultiDesignRoundTrip checks the multi-object decoder never panics
// on arbitrary input and that its encoding is lossless: anything that
// decodes and re-encodes must hit a JSON fixed point (encode∘decode is
// the identity on encoded forms — what chaos repro replay relies on).
func FuzzMultiDesignRoundTrip(f *testing.F) {
	md := sampleMulti()
	data, err := MarshalMulti(md)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"objects":[]}`))
	f.Add([]byte(`{"objects":[{"name":"a","dependsOn":["a"],"workload":{"dataCap":"1GB"},"primary":{"array":"x"}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		md, err := UnmarshalMulti(data)
		if err != nil {
			return
		}
		enc, err := MarshalMulti(md)
		if err != nil {
			// Re-encoding may only fail on incomplete objects; those carry
			// a regular error, never a panic.
			return
		}
		md2, err := UnmarshalMulti(enc)
		if err != nil {
			t.Fatalf("re-decoding our own encoding failed: %v", err)
		}
		enc2, err := MarshalMulti(md2)
		if err != nil {
			t.Fatalf("re-encoding decoded design failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
		if md.Validate() == nil {
			if _, err := core.BuildMulti(md); err != nil {
				// Aggregate overload is a regular rejection, not a bug.
				t.Logf("build rejected validated multi design: %v", err)
			}
		}
	})
}
