package exp

import (
	"fmt"
	"strings"
	"testing"
)

// TestFiguresGolden pins the simulated-MDS figures end to end at a small
// scale: Fig. 6, Fig. 7, Fig. 8, Table 3, the async and cluster sweeps and
// the mining-quality table render byte-for-byte what they rendered before
// the response-time histogram, the per-policy MDS constructors and the
// per-policy predictors were consolidated. The
// rendered tables round to the microsecond, so the sweeps' AvgResponse is
// pinned again at full nanosecond precision: it is an exact mean, and any
// drift means a refactor changed what the replay does.
func TestFiguresGolden(t *testing.T) {
	opt := Options{Records: 2000}
	runs := ComparePolicies(opt)
	async := SyncVsAsync(opt)
	cluster := ClusterGlobalVsLocal(opt)
	var ns []string
	for _, r := range async {
		ns = append(ns, fmt.Sprintf("%s/%s %d", r.Trace, r.Pipeline, int64(r.AvgResponse)))
	}
	for _, r := range cluster {
		ns = append(ns, fmt.Sprintf("%s/%s/%s %d", r.Trace, r.Partition, r.Mining, int64(r.AvgResponse)))
	}
	const (
		fig6 = `max_strength  AvgResponse(ms)
------------  ---------------
0.0           1.192          
0.1           1.192          
0.2           1.192          
0.3           1.190          
0.4           1.203          
0.5           1.199          
0.6           1.198          
0.7           1.200          
0.8           1.294          
0.9           1.293          
1.0           1.322          
`
		fig7 = `Trace  FARMER  Nexus   LRU   
-----  ------  ------  ------
LLNL   0.2700  0.2620  0.2145
INS    0.8880  0.8880  0.8880
RES    0.2115  0.1970  0.1530
HP     0.4085  0.4040  0.3475
`
		fig8 = `Trace  FARMER(ms)  Nexus(ms)  LRU(ms)
-----  ----------  ---------  -------
LLNL   1.4730      1.4890     1.5810 
INS    0.2680      0.2680     0.2680 
RES    1.5870      1.6150     1.7010 
HP     1.2030      1.2120     1.3220 
`
		table3 = `Trace   Prefetching Accuracy
------  --------------------
FARMER  48.77%              
Nexus   40.22%              
`
		asyncLatency = `Trace  Pipeline  HitRatio  AvgResp  DemandWait  MineWait  PfDropped
-----  --------  --------  -------  ----------  --------  ---------
LLNL   baseline  0.2145    1.582ms  0.000ms     0.000ms   0        
LLNL   sync      0.2605    2.492ms  0.000ms     0.000ms   0        
LLNL   async     0.2615    1.490ms  0.000ms     0.000ms   0        
INS    baseline  0.8880    0.268ms  0.000ms     0.000ms   0        
INS    sync      0.8880    1.268ms  0.000ms     0.000ms   0        
INS    async     0.8880    0.268ms  0.000ms     0.000ms   0        
RES    baseline  0.1530    1.702ms  0.000ms     0.000ms   0        
RES    sync      0.1935    2.623ms  0.000ms     0.000ms   0        
RES    async     0.2005    1.609ms  0.000ms     0.000ms   0        
HP     baseline  0.3475    1.322ms  0.000ms     0.000ms   0        
HP     sync      0.3810    2.257ms  0.000ms     0.000ms   0        
HP     async     0.3870    1.245ms  0.000ms     0.000ms   0        
`
		clusterTable = `Trace  Partition  Mining  HitRatio  AvgResp  DemandWait  Cross%   BoxDrop  GlobalFP
-----  ---------  ------  --------  -------  ----------  -------  -------  --------
LLNL   hash       local   0.3900    2.240ms  0.000ms     0.0000   0        -       
LLNL   hash       global  0.3910    1.238ms  0.000ms     57.0498  0        exact   
LLNL   group      local   0.3930    2.234ms  0.000ms     0.0000   0        -       
LLNL   group      global  0.3925    1.235ms  0.000ms     48.0967  0        exact   
INS    hash       local   0.8880    1.268ms  0.000ms     0.0000   0        -       
INS    hash       global  0.8880    0.268ms  0.000ms     61.6818  0        exact   
INS    group      local   0.8880    1.268ms  0.000ms     0.0000   0        -       
INS    group      global  0.8880    0.268ms  0.000ms     37.8399  0        exact   
RES    hash       local   0.3350    2.347ms  0.000ms     0.0000   0        -       
RES    hash       global  0.3365    1.344ms  0.000ms     58.2728  0        exact   
RES    group      local   0.3345    2.348ms  0.000ms     0.0000   0        -       
RES    group      global  0.3350    1.347ms  0.000ms     47.2966  0        exact   
HP     hash       local   0.5215    1.983ms  0.000ms     0.0000   0        -       
HP     hash       global  0.5215    0.983ms  0.000ms     58.6755  0        exact   
HP     group      local   0.5215    1.983ms  0.000ms     0.0000   0        -       
HP     group      global  0.5215    0.983ms  0.000ms     44.1788  0        exact   
`
		avgResponseNS = `LLNL/baseline 1581725
LLNL/sync 2492150
LLNL/async 1490075
INS/baseline 268400
INS/sync 1268400
INS/async 268400
RES/baseline 1701650
RES/sync 2622800
RES/async 1609025
HP/baseline 1322375
HP/sync 2257425
HP/async 1245350
LLNL/hash/local 2239500
LLNL/hash/global 1237550
LLNL/group/local 2233650
LLNL/group/global 1234625
INS/hash/local 1268400
INS/hash/global 268400
INS/group/local 1268400
INS/group/global 268400
RES/hash/local 2346750
RES/hash/global 1343825
RES/group/local 2347725
RES/group/global 1346750
HP/hash/local 1983075
HP/hash/global 983075
HP/group/local 1983075
HP/group/global 983075
`
		quality = `Trace  Policy     Precision  Recall  F1    
-----  ---------  ---------  ------  ------
LLNL   FARMER     0.6430     0.2972  0.4066
LLNL   Nexus      0.3746     0.2319  0.2865
LLNL   ProbGraph  0.3739     0.2356  0.2891
LLNL   LS         0.4540     0.1147  0.1832
LLNL   PBS        0.7352     0.2325  0.3533
LLNL   PULS       0.7352     0.2325  0.3533
INS    FARMER     0.8318     0.5818  0.6847
INS    Nexus      0.6719     0.4135  0.5120
INS    ProbGraph  0.6494     0.3962  0.4922
INS    LS         0.6478     0.1840  0.2865
INS    PBS        0.8821     0.3952  0.5458
INS    PULS       0.8821     0.3952  0.5458
RES    FARMER     0.6596     0.3117  0.4234
RES    Nexus      0.3609     0.2599  0.3022
RES    ProbGraph  0.3568     0.2582  0.2996
RES    LS         0.4206     0.1274  0.1956
RES    PBS        0.8020     0.2878  0.4236
RES    PULS       0.8020     0.2878  0.4236
HP     FARMER     0.6757     0.3982  0.5011
HP     Nexus      0.5036     0.3057  0.3804
HP     ProbGraph  0.4624     0.3062  0.3685
HP     LS         0.5284     0.1416  0.2233
HP     PBS        0.8858     0.2788  0.4242
HP     PULS       0.8858     0.2788  0.4242
`
	)
	for _, c := range []struct{ name, got, want string }{
		{"Fig6", Fig6(opt).String(), fig6},
		{"Fig7", Fig7(runs).String(), fig7},
		{"Fig8", Fig8(runs).String(), fig8},
		{"Table3", Table3(runs).String(), table3},
		{"AsyncLatency", AsyncLatency(async).String(), asyncLatency},
		{"ClusterTable", ClusterTable(cluster).String(), clusterTable},
		{"AvgResponse ns", strings.Join(ns, "\n") + "\n", avgResponseNS},
		{"MiningQuality", MiningQuality(opt).String(), quality},
	} {
		if c.got != c.want {
			t.Errorf("%s drifted:\n got:\n%s\nwant:\n%s", c.name, c.got, c.want)
		}
	}
}
