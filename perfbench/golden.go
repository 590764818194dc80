package main

// goldenDigests pins, per workload, the SHA-256 of one unit's simulated
// outputs at defaultSeed (CX-5 profile): trace values and classifier
// predictions for snoop; decoded bits, BER, bandwidths and symbol means for
// covert; I/O counts, p99 latencies and HARMONIC scores for nvmf. A change
// that alters any simulated output changes these.
var goldenDigests = map[string]string{
	"snoop":  "3d9e30fd207d901091364a5e89f565ead1769461413860ddcdc655abe30114a5",
	"covert": "50b3de2b037cec7ad678990bd54a94b4e44738f192ef05e5715dfeddfef3884d",
	"nvmf":   "e3967801f8efcc0ea6d54037bed32ae4167ead64011302978a4550a1f72f45af",
}
