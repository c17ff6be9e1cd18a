package config

import "strconv"

// readCanonical fills dj from data in one pass, without reflection, and
// reports whether data is in the canonical subset of the design schema,
// which covers everything Marshal writes:
//
//   - one object, with JSON whitespace between tokens and nothing after it;
//   - keys spelled exactly as designJSON's struct tags, each at most once
//     per object;
//   - strings of printable ASCII without a backslash;
//   - number literals, with an int field taking only an integer literal
//     that fits an int;
//   - arrays and objects only where the schema has them, and no null,
//     true or false.
//
// When it reports true, dj is reflect.DeepEqual to what json.Unmarshal
// decodes from data. When it reports false, dj holds a partial decode to
// discard. Decoded strings share one copy of data.
func readCanonical(data []byte, dj *designJSON) bool {
	r := reader{s: string(data)}
	r.design(dj)
	r.space()
	return !r.bad && r.i == len(r.s)
}

// reader is readCanonical's cursor. Once bad is set, the input has left
// the canonical subset and nothing read after it matters.
type reader struct {
	s   string
	i   int
	bad bool
}

// Byte classes of the reader's scanning loops.
const (
	// classSpace marks JSON whitespace.
	classSpace = 1 << iota
	// classStr marks the bytes a canonical string holds: printable ASCII
	// but the quote and the backslash.
	classStr
)

var byteClass = func() (t [256]uint8) {
	for _, c := range []byte(" \t\n\r") {
		t[c] |= classSpace
	}
	for c := ' '; c <= '~'; c++ {
		if c != '"' && c != '\\' {
			t[c] |= classStr
		}
	}
	return t
}()

func (r *reader) space() {
	s, i := r.s, r.i
	for i < len(s) && byteClass[s[i]]&classSpace != 0 {
		i++
	}
	r.i = i
}

// token skips whitespace and consumes c if it comes next.
func (r *reader) token(c byte) bool {
	r.space()
	return r.skip(c)
}

// skip consumes c if it is the next byte.
func (r *reader) skip(c byte) bool {
	if r.i < len(r.s) && r.s[r.i] == c {
		r.i++
		return true
	}
	return false
}

// expect consumes c after whitespace and declines if anything else comes.
func (r *reader) expect(c byte) {
	if !r.token(c) {
		r.bad = true
	}
}

// digits consumes a run of decimal digits and reports whether there was
// one.
func (r *reader) digits() bool {
	start := r.i
	for r.i < len(r.s) && '0' <= r.s[r.i] && r.s[r.i] <= '9' {
		r.i++
	}
	return r.i > start
}

// object reads an object. field reads the value of each key it knows
// and reports whether it knew the key; an unknown or repeated key
// declines.
func (r *reader) object(field func(key string) bool) {
	r.expect('{')
	if r.bad || r.token('}') {
		return
	}
	// No schema object has more than 15 keys.
	var seen [16]string
	for n := 0; ; n++ {
		key := r.str()
		r.expect(':')
		if r.bad || n == len(seen) {
			r.bad = true
			return
		}
		for _, k := range seen[:n] {
			if k == key {
				r.bad = true
				return
			}
		}
		seen[n] = key
		if !field(key) || r.bad {
			r.bad = true
			return
		}
		if !r.token(',') {
			r.expect('}')
			return
		}
	}
}

// list reads an array of a schema list's elements into a slice allocated
// once at their number. The elements are read into a stack array first,
// spilling to the heap only past its length, so nothing regrows on the
// way to the final size. Like encoding/json, it returns an empty slice,
// not nil, for [].
func list[T placedJSON | levelJSON | pointJSON | string](r *reader) []T {
	var tmp [8]T
	elems := tmp[:0]
	for r.next(len(elems)) {
		elems = append(elems, *new(T))
		// A static call per element type: through a func value the
		// element's address, and tmp with it, would escape to the heap.
		switch e := any(&elems[len(elems)-1]).(type) {
		case *placedJSON:
			r.placed(e)
		case *levelJSON:
			r.level(e)
		case *pointJSON:
			r.point(e)
		case *string:
			*e = r.str()
		}
	}
	out := make([]T, len(elems))
	copy(out, elems)
	return out
}

// next reports whether another element of the array being read follows.
// Before the first (n == 0) it consumes the opening bracket, before each
// later one a comma, and after the last the closing bracket.
func (r *reader) next(n int) bool {
	if n == 0 {
		r.expect('[')
		return !r.bad && !r.token(']')
	}
	if r.bad {
		return false
	}
	if r.token(',') {
		return true
	}
	r.expect(']')
	return false
}

// str reads a string of printable ASCII without escapes.
func (r *reader) str() string {
	if !r.token('"') {
		r.bad = true
		return ""
	}
	s, j := r.s, r.i
	for j < len(s) && byteClass[s[j]]&classStr != 0 {
		j++
	}
	if j == len(s) || s[j] != '"' {
		r.bad = true
		return ""
	}
	v := s[r.i:j]
	r.i = j + 1
	return v
}

// number reads a JSON number literal and reports whether it is an
// integer literal, with neither fraction nor exponent.
func (r *reader) number() (lit string, integer bool) {
	r.space()
	start := r.i
	r.skip('-')
	if !r.skip('0') && !r.digits() {
		r.bad = true
	}
	integer = true
	if r.skip('.') {
		integer = false
		if !r.digits() {
			r.bad = true
		}
	}
	if r.skip('e') || r.skip('E') {
		integer = false
		if !r.skip('+') {
			r.skip('-')
		}
		if !r.digits() {
			r.bad = true
		}
	}
	return r.s[start:r.i], integer
}

// float reads a number into a float64 field as encoding/json does.
func (r *reader) float() float64 {
	lit, _ := r.number()
	if r.bad {
		return 0
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		r.bad = true
	}
	return f
}

// int reads an integer literal into an int field.
func (r *reader) int() int {
	lit, integer := r.number()
	if r.bad || !integer {
		r.bad = true
		return 0
	}
	n, err := strconv.Atoi(lit)
	if err != nil {
		r.bad = true
	}
	return n
}

// --- the design schema -------------------------------------------------------

func (r *reader) design(dj *designJSON) {
	r.object(func(key string) bool {
		switch key {
		case "name":
			dj.Name = r.str()
		case "workload":
			r.workload(&dj.Workload)
		case "requirements":
			req := &dj.Requirements
			r.object(func(key string) bool {
				switch key {
				case "unavailPenaltyPerHour":
					req.UnavailPenaltyPerHour = r.float()
				case "lossPenaltyPerHour":
					req.LossPenaltyPerHour = r.float()
				default:
					return false
				}
				return true
			})
		case "devices":
			dj.Devices = list[placedJSON](r)
		case "primary":
			r.object(func(key string) bool {
				if key != "array" {
					return false
				}
				dj.Primary.Array = r.str()
				return true
			})
		case "levels":
			dj.Levels = list[levelJSON](r)
		case "facility":
			f := new(facilityJSON)
			dj.Facility = f
			r.object(func(key string) bool {
				switch key {
				case "placement":
					r.placement(&f.Placement)
				case "provisionTime":
					f.ProvisionTime = r.str()
				case "costFactor":
					f.CostFactor = r.float()
				default:
					return false
				}
				return true
			})
		default:
			return false
		}
		return true
	})
}

func (r *reader) workload(w *workloadJSON) {
	r.object(func(key string) bool {
		switch key {
		case "name":
			w.Name = r.str()
		case "dataCap":
			w.DataCap = r.str()
		case "avgAccessRate":
			w.AvgAccessRate = r.str()
		case "avgUpdateRate":
			w.AvgUpdateRate = r.str()
		case "burstMult":
			w.BurstMult = r.float()
		case "batchCurve":
			w.BatchCurve = list[pointJSON](r)
		default:
			return false
		}
		return true
	})
}

func (r *reader) point(p *pointJSON) {
	r.object(func(key string) bool {
		switch key {
		case "window":
			p.Window = r.str()
		case "rate":
			p.Rate = r.str()
		default:
			return false
		}
		return true
	})
}

func (r *reader) placed(p *placedJSON) {
	r.object(func(key string) bool {
		switch key {
		case "spec":
			r.spec(&p.Spec)
		case "placement":
			r.placement(&p.Placement)
		case "sparePlacement":
			p.SparePlacement = new(placementJSON)
			r.placement(p.SparePlacement)
		default:
			return false
		}
		return true
	})
}

func (r *reader) spec(s *specJSON) {
	r.object(func(key string) bool {
		switch key {
		case "name":
			s.Name = r.str()
		case "kind":
			s.Kind = r.str()
		case "maxCapSlots":
			s.MaxCapSlots = r.int()
		case "slotCap":
			s.SlotCap = r.str()
		case "maxBWSlots":
			s.MaxBWSlots = r.int()
		case "slotBW":
			s.SlotBW = r.str()
		case "enclBW":
			s.EnclBW = r.str()
		case "delay":
			s.Delay = r.str()
		case "capOverhead":
			s.CapOverhead = r.float()
		case "cost":
			c := &s.Cost
			r.object(func(key string) bool {
				switch key {
				case "fixed":
					c.Fixed = r.float()
				case "perGB":
					c.PerGB = r.float()
				case "perMBPerSec":
					c.PerMBPerSec = r.float()
				case "perShipment":
					c.PerShipment = r.float()
				default:
					return false
				}
				return true
			})
		case "spare":
			sp := new(spareJSON)
			s.Spare = sp
			r.object(func(key string) bool {
				switch key {
				case "kind":
					sp.Kind = r.str()
				case "provisionTime":
					sp.ProvisionTime = r.str()
				case "discount":
					sp.Discount = r.float()
				default:
					return false
				}
				return true
			})
		case "reliability":
			rel := new(reliabilityJSON)
			s.Reliability = rel
			r.object(func(key string) bool {
				switch key {
				case "failure":
					r.dist(&rel.Failure)
				case "repair":
					r.dist(&rel.Repair)
				default:
					return false
				}
				return true
			})
		default:
			return false
		}
		return true
	})
}

func (r *reader) dist(d *distJSON) {
	r.object(func(key string) bool {
		switch key {
		case "kind":
			d.Kind = r.str()
		case "mean":
			d.Mean = r.str()
		case "shape":
			d.Shape = r.float()
		default:
			return false
		}
		return true
	})
}

func (r *reader) placement(p *placementJSON) {
	r.object(func(key string) bool {
		switch key {
		case "array":
			p.Array = r.str()
		case "building":
			p.Building = r.str()
		case "site":
			p.Site = r.str()
		case "region":
			p.Region = r.str()
		default:
			return false
		}
		return true
	})
}

func (r *reader) level(l *levelJSON) {
	r.object(func(key string) bool {
		switch key {
		case "type":
			l.Type = r.str()
		case "name":
			l.Name = r.str()
		case "array":
			l.Array = r.str()
		case "sourceArray":
			l.SourceArray = r.str()
		case "target":
			l.Target = r.str()
		case "destArray":
			l.DestArray = r.str()
		case "links":
			l.Links = r.str()
		case "vault":
			l.Vault = r.str()
		case "transport":
			l.Transport = r.str()
		case "mode":
			l.Mode = r.str()
		case "backupRetW":
			l.BackupRetW = r.str()
		case "fragments":
			l.Fragments = r.int()
		case "threshold":
			l.Threshold = r.int()
		case "sites":
			l.Sites = list[string](r)
		case "policy":
			r.policy(&l.Policy)
		default:
			return false
		}
		return true
	})
}

func (r *reader) policy(p *policyJSON) {
	r.object(func(key string) bool {
		switch key {
		case "accW":
			p.AccW = r.str()
		case "propW":
			p.PropW = r.str()
		case "holdW":
			p.HoldW = r.str()
		case "retCnt":
			p.RetCnt = r.int()
		case "retW":
			p.RetW = r.str()
		case "copyRep":
			p.CopyRep = r.str()
		case "propRep":
			p.PropRep = r.str()
		case "cycleCnt":
			p.CycleCnt = r.int()
		case "secondary":
			w := new(windowSetJSON)
			p.Secondary = w
			r.object(func(key string) bool {
				switch key {
				case "accW":
					w.AccW = r.str()
				case "propW":
					w.PropW = r.str()
				case "holdW":
					w.HoldW = r.str()
				case "rep":
					w.Rep = r.str()
				default:
					return false
				}
				return true
			})
		default:
			return false
		}
		return true
	})
}
