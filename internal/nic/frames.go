package nic

import (
	"fmt"

	"github.com/thu-has/ragnar/internal/wire"
)

// opcodeToWire maps the simulator's opcode/direction onto IBA opcodes.
func opcodeToWire(m *Message) (byte, error) {
	if m.IsResp {
		switch m.Op {
		case OpRead:
			return wire.OpReadResponseOnly, nil
		case OpAtomicFAA, OpAtomicCAS:
			return wire.OpAtomicAck, nil
		default:
			return wire.OpAcknowledge, nil
		}
	}
	switch m.Op {
	case OpSend:
		return wire.OpSendOnly, nil
	case OpWrite:
		return wire.OpWriteOnly, nil
	case OpRead:
		return wire.OpReadRequest, nil
	case OpAtomicCAS:
		return wire.OpCompareSwap, nil
	case OpAtomicFAA:
		return wire.OpFetchAdd, nil
	}
	return 0, fmt.Errorf("nic: no wire opcode for %v", m.Op)
}

// encodeSegments builds the full RoCEv2 transport encoding of a message,
// segmenting payloads larger than the MTU into FIRST/MIDDLE/LAST packets
// exactly as the RC transport does (PSNs increment per segment).
func encodeSegments(m *Message, mtu int) ([][]byte, error) {
	payloadCarrier := !m.IsResp && (m.Op == OpWrite || m.Op == OpSend) ||
		m.IsResp && m.Op == OpRead
	if !payloadCarrier || len(m.Data) <= mtu {
		f, err := encodeFrame(m)
		if err != nil {
			return nil, err
		}
		return [][]byte{f}, nil
	}

	var firstOp, midOp, lastOp byte
	switch {
	case m.IsResp: // read response
		firstOp, midOp, lastOp = wire.OpReadRespFirst, wire.OpReadRespMiddle, wire.OpReadRespLast
	case m.Op == OpWrite:
		firstOp, midOp, lastOp = wire.OpWriteFirst, wire.OpWriteMiddle, wire.OpWriteLast
	default: // send
		firstOp, midOp, lastOp = wire.OpSendFirst, wire.OpSendMiddle, wire.OpSendLast
	}

	var out [][]byte
	psn := m.PSN & 0xffffff
	for off := 0; off < len(m.Data); off += mtu {
		end := off + mtu
		if end > len(m.Data) {
			end = len(m.Data)
		}
		p := &wire.Packet{
			BTH: wire.BTH{
				DestQP: m.DstQPN & 0xffffff,
				PSN:    psn,
				AckReq: !m.IsResp && end == len(m.Data),
			},
			Payload: m.Data[off:end],
		}
		switch {
		case off == 0:
			p.BTH.Opcode = firstOp
			if firstOp == wire.OpWriteFirst {
				p.Reth = &wire.RETH{VA: m.RemoteAddr, RKey: m.RKey, DMALen: uint32(m.Length)}
			}
			if firstOp == wire.OpReadRespFirst {
				p.Aeth = &wire.AETH{Syndrome: aethSyndrome(m.Status), MSN: psn}
			}
		case end == len(m.Data):
			p.BTH.Opcode = lastOp
			if lastOp == wire.OpReadRespLast {
				p.Aeth = &wire.AETH{Syndrome: aethSyndrome(m.Status), MSN: psn}
			}
		default:
			p.BTH.Opcode = midOp
		}
		raw, err := p.Marshal()
		if err != nil {
			return nil, err
		}
		out = append(out, raw)
		psn = (psn + 1) & 0xffffff
	}
	return out, nil
}

// encodeFrame builds the RoCEv2 transport encoding of a single-packet
// message. The PSN carries the QP's 24-bit packet sequence number; an ACK's
// AETH MSN carries the cumulative acknowledgement PSN.
func encodeFrame(m *Message) ([]byte, error) {
	op, err := opcodeToWire(m)
	if err != nil {
		return nil, err
	}
	p := &wire.Packet{
		BTH: wire.BTH{
			Opcode: op,
			DestQP: m.DstQPN & 0xffffff,
			PSN:    m.PSN & 0xffffff,
			AckReq: !m.IsResp,
		},
	}
	switch op {
	case wire.OpWriteOnly, wire.OpReadRequest:
		p.Reth = &wire.RETH{VA: m.RemoteAddr, RKey: m.RKey, DMALen: uint32(m.Length)}
	case wire.OpReadResponseOnly, wire.OpAcknowledge:
		p.Aeth = &wire.AETH{Syndrome: aethSyndrome(m.Status), MSN: m.AckPSN & 0xffffff}
	case wire.OpAtomicAck:
		p.Aeth = &wire.AETH{Syndrome: aethSyndrome(m.Status), MSN: m.AckPSN & 0xffffff}
		p.AtomicAck = m.CompareAdd
	case wire.OpCompareSwap:
		p.Atomic = &wire.AtomicETH{VA: m.RemoteAddr, RKey: m.RKey, SwapAdd: m.Swap, Compare: m.CompareAdd}
	case wire.OpFetchAdd:
		p.Atomic = &wire.AtomicETH{VA: m.RemoteAddr, RKey: m.RKey, SwapAdd: m.CompareAdd}
	}
	if !m.IsResp && (m.Op == OpWrite || m.Op == OpSend) || m.IsResp && m.Op == OpRead {
		p.Payload = m.Data
	}
	return p.Marshal()
}

// aethSyndrome encodes the completion status in the ACK syndrome field
// (0 = ACK, 0x60.. = NAK classes; remote access error maps to NAK-RAE).
func aethSyndrome(s Status) byte {
	switch s {
	case StatusOK:
		return 0x00
	case StatusSeqNak:
		return 0x60 // NAK: PSN sequence error (go-back-N rewind request)
	case StatusRemoteAccessError:
		return 0x62 // NAK: remote access error
	default:
		return 0x61 // NAK: invalid request class
	}
}

// verifySegments parses the encoded segments and checks them against the
// message the simulator routed alongside them — a datapath self-check that
// the simulated traffic and its wire encoding never diverge.
func verifySegments(raws [][]byte, m *Message) error {
	if len(raws) == 0 {
		return fmt.Errorf("nic: message carried no frames")
	}
	var payload []byte
	for i, raw := range raws {
		p, err := wire.Parse(raw)
		if err != nil {
			return err
		}
		if p.BTH.DestQP != m.DstQPN&0xffffff {
			return fmt.Errorf("nic: frame destQP %d, message %d", p.BTH.DestQP, m.DstQPN)
		}
		if i == 0 && len(raws) == 1 {
			wantOp, err := opcodeToWire(m)
			if err != nil {
				return err
			}
			if p.BTH.Opcode != wantOp {
				return fmt.Errorf("nic: frame opcode %#x, message %v", p.BTH.Opcode, m.Op)
			}
		}
		if i == 0 && p.Reth != nil {
			if p.Reth.VA != m.RemoteAddr || p.Reth.RKey != m.RKey || p.Reth.DMALen != uint32(m.Length) {
				return fmt.Errorf("nic: RETH mismatch: %+v vs msg addr=%d rkey=%d len=%d",
					p.Reth, m.RemoteAddr, m.RKey, m.Length)
			}
		}
		payload = append(payload, p.Payload...)
	}
	if len(payload) != len(m.Data) {
		return fmt.Errorf("nic: frames carry %d payload bytes, message %d", len(payload), len(m.Data))
	}
	for i := range payload {
		if payload[i] != m.Data[i] {
			return fmt.Errorf("nic: reassembled payload differs at byte %d", i)
		}
	}
	return nil
}
