package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"time"

	"armus/internal/core"
	"armus/internal/server/proto"
	"armus/internal/trace"
	"armus/internal/trace/replay"
)

// minLayerTime is how long each throughput layer of the layer pass is
// timed at least (whole passes over the input set).
const minLayerTime = 200 * time.Millisecond

// layerPass times the in-process layers on the run's own inputs, around
// calls into each module's public functions:
//   - trace: AppendEventFrame and NextFrame+DecodeFramePayload per event;
//   - server/proto: AppendResponse and ReadResponse per response frame (a
//     gate answer per block, a checkpoint verdict per unblock);
//   - deps through trace/replay: AvoidEngine.Gate per block;
//   - core: Verifier.CheckNow (a full detection scan) per mutation.
func layerPass(set *inputSet) (map[string]float64, error) {
	out := map[string]float64{}

	frames := make([][]byte, len(set.inputs))
	events := 0
	for _, in := range set.inputs {
		events += len(in.tr.Events)
	}
	t0 := time.Now()
	for passes := 1; ; passes++ {
		for i, in := range set.inputs {
			buf := frames[i][:0]
			for _, ev := range in.tr.Events {
				var err error
				if buf, err = trace.AppendEventFrame(buf, ev); err != nil {
					return nil, fmt.Errorf("trace encode: %w", err)
				}
			}
			frames[i] = buf
		}
		if el := time.Since(t0); el >= minLayerTime {
			out["trace.encode_ns_per_event"] = float64(el) / float64(events*passes)
			break
		}
	}
	var bytesTotal int
	for _, f := range frames {
		bytesTotal += len(f)
	}
	out["trace.bytes_per_event"] = float64(bytesTotal) / float64(events)

	t0 = time.Now()
	var ev trace.Event
	for passes := 1; ; passes++ {
		for _, f := range frames {
			for rest := f; len(rest) > 0; {
				payload, r, err := trace.NextFrame(rest)
				if err == nil {
					err = trace.DecodeFramePayload(payload, &ev)
				}
				if err != nil {
					return nil, fmt.Errorf("trace decode: %w", err)
				}
				rest = r
			}
		}
		if el := time.Since(t0); el >= minLayerTime {
			out["trace.decode_ns_per_event"] = float64(el) / float64(events*passes)
			break
		}
	}

	var resps []proto.Response
	for _, in := range set.inputs {
		mut := 0
		for _, ev := range in.tr.Events {
			switch ev.Kind {
			case trace.KindBlock:
				resps = append(resps, proto.Response{Kind: proto.RespGate, Task: ev.Status.Task, Allowed: true})
				mut++
			case trace.KindUnblock:
				resps = append(resps, proto.Response{Kind: proto.RespVerdict, Seq: uint64(mut), Deadlocked: in.expected[mut]})
				mut++
			}
		}
	}
	var wire []byte
	t0 = time.Now()
	for passes := 1; ; passes++ {
		wire = wire[:0]
		for i := range resps {
			var err error
			if wire, err = proto.AppendResponse(wire, &resps[i]); err != nil {
				return nil, fmt.Errorf("proto encode: %w", err)
			}
		}
		if el := time.Since(t0); el >= minLayerTime {
			out["proto.encode_ns_per_frame"] = float64(el) / float64(len(resps)*passes)
			break
		}
	}
	t0 = time.Now()
	var r proto.Response
	rd := bytes.NewReader(wire)
	br := bufio.NewReader(rd)
	for passes := 1; ; passes++ {
		rd.Reset(wire)
		br.Reset(rd)
		for {
			err := proto.ReadResponse(br, &r)
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("proto decode: %w", err)
			}
		}
		if el := time.Since(t0); el >= minLayerTime {
			out["proto.decode_ns_per_frame"] = float64(el) / float64(len(resps)*passes)
			break
		}
	}

	var gates, scans []float64
	for _, in := range set.inputs {
		eng := replay.NewAvoidEngine()
		v := core.New(core.WithMode(core.ModeObserve))
		for _, ev := range in.tr.Events {
			switch ev.Kind {
			case trace.KindBlock:
				t := time.Now()
				eng.Gate(ev.Status)
				gates = append(gates, float64(time.Since(t)))
				v.State().SetBlocked(ev.Status)
			case trace.KindUnblock:
				eng.Clear(ev.Task)
				v.State().Clear(ev.Task)
			default:
				continue
			}
			t := time.Now()
			v.CheckNow()
			scans = append(scans, float64(time.Since(t))/1e3)
		}
		v.Close()
	}
	out["deps.gate_ns.p50"] = quantile(gates, 0.5)
	out["deps.gate_ns.p99"] = quantile(gates, 0.99)
	out["core.scan_us.p50"] = quantile(scans, 0.5)
	out["core.scan_us.p99"] = quantile(scans, 0.99)
	out["deps.gate.n"] = float64(len(gates))
	out["core.scan.n"] = float64(len(scans))
	return out, nil
}
