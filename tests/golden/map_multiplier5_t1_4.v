// Generated by t1map: 4 phases, horizon 13
// MappedCircuit: 10 inputs, 53 gates, 9 T1 cells, 10 outputs
module sfq_top(input clk, input pi0, input pi1, input pi2, input pi3, input pi4, input pi5, input pi6, input pi7, input pi8, input pi9, output po0, output po1, output po2, output po3, output po4, output po5, output po6, output po7, output po8, output po9);
  wire n10;
  wire n11;
  wire n12;
  wire n13;
  wire n14;
  wire n15;
  wire n16;
  wire n17;
  wire n18;
  wire n18_p1;
  wire n18_p2;
  wire n19;
  wire n20;
  wire n21;
  wire n22;
  wire n23;
  wire n24;
  wire n25;
  wire n25_p1;
  wire n25_p2;
  wire n26;
  wire n26_p1;
  wire n26_p2;
  wire n27;
  wire n28;
  wire n29;
  wire n30;
  wire n31;
  wire n32;
  wire n33;
  wire n34;
  wire n34_p1;
  wire n34_p2;
  wire n35;
  wire n35_p1;
  wire n35_p2;
  wire n36;
  wire n36_p1;
  wire n36_p2;
  wire n37;
  wire n38;
  wire n39;
  wire n40;
  wire n41;
  wire n42;
  wire n43;
  wire n44;
  wire n45;
  wire n46;
  wire n47;
  wire n48;
  wire n49;
  wire n50;
  wire n51;
  wire n52;
  wire n53;
  wire n54;
  wire n55;
  wire n56;
  wire n56_p1;
  wire n56_p2;
  wire n57;
  wire n58;
  wire n59;
  wire n60;
  wire n60_p1;
  wire n60_p2;
  wire n61;
  wire n62;
  wire n63;
  wire n64;
  wire n64_p1;
  wire n64_p2;
  wire n65;
  wire n66;
  wire n67;
  wire n68;
  wire n69;
  wire n70;
  wire n71;
  wire n10_d6;
  wire n10_d10;
  wire n13_d6;
  wire n13_d10;
  wire n18_p1_d5;
  wire n19_d10;
  wire n25_p1_d5;
  wire n26_p1_d7;
  wire n27_d11;
  wire n29_d5;
  wire n39_d8;
  wire n61_d10;
  wire n64_d9;
  wire n64_p1_d9;
  wire n68_d5;
  wire n68_d9;
  sfq_gate2 #(.TT(4'b1000)) g10_s2(.clk(clk), .a(pi0), .b(pi5), .q(n10));
  sfq_gate2 #(.TT(4'b1000)) g11_s1(.clk(clk), .a(pi1), .b(pi5), .q(n11));
  sfq_gate2 #(.TT(4'b1000)) g12_s1(.clk(clk), .a(pi0), .b(pi6), .q(n12));
  sfq_gate2 #(.TT(4'b1001)) g13_s2(.clk(clk), .a(n11), .b(n12), .q(n13));
  sfq_gate2 #(.TT(4'b1000)) g14_s2(.clk(clk), .a(n11), .b(n12), .q(n14));
  sfq_gate2 #(.TT(4'b1000)) g15_s3(.clk(clk), .a(pi2), .b(pi5), .q(n15));
  sfq_gate2 #(.TT(4'b1000)) g16_s2(.clk(clk), .a(pi1), .b(pi6), .q(n16));
  sfq_gate2 #(.TT(4'b1000)) g17_s1(.clk(clk), .a(pi0), .b(pi7), .q(n17));
  sfq_t1 t1_18_s4(.clk(clk), .t0(n15), .t1(n16), .t2(n17), .s(n18), .c(n18_p1), .q(n18_p2));
  sfq_gate2 #(.TT(4'b0110)) g19_s6(.clk(clk), .a(n14), .b(~n18), .q(n19));
  sfq_gate2 #(.TT(4'b0010)) g20_s5(.clk(clk), .a(n14), .b(~n18), .q(n20));
  sfq_gate2 #(.TT(4'b1000)) g21_s3(.clk(clk), .a(pi0), .b(pi8), .q(n21));
  sfq_gate2 #(.TT(4'b1000)) g22_s3(.clk(clk), .a(pi3), .b(pi5), .q(n22));
  sfq_gate2 #(.TT(4'b1000)) g23_s2(.clk(clk), .a(pi2), .b(pi6), .q(n23));
  sfq_gate2 #(.TT(4'b1000)) g24_s1(.clk(clk), .a(pi1), .b(pi7), .q(n24));
  sfq_t1 t1_25_s4(.clk(clk), .t0(n22), .t1(n23), .t2(n24), .s(n25), .c(n25_p1), .q(n25_p2));
  sfq_t1 t1_26_s6(.clk(clk), .t0(n21), .t1(n18_p1_d5), .t2(n25), .s(n26), .c(n26_p1), .q(n26_p2));
  sfq_gate2 #(.TT(4'b0110)) g27_s7(.clk(clk), .a(n20), .b(~n26), .q(n27));
  sfq_gate2 #(.TT(4'b0010)) g28_s7(.clk(clk), .a(n20), .b(~n26), .q(n28));
  sfq_gate2 #(.TT(4'b1000)) g29_s1(.clk(clk), .a(pi0), .b(pi9), .q(n29));
  sfq_gate2 #(.TT(4'b1000)) g30_s3(.clk(clk), .a(pi1), .b(pi8), .q(n30));
  sfq_gate2 #(.TT(4'b1000)) g31_s3(.clk(clk), .a(pi4), .b(pi5), .q(n31));
  sfq_gate2 #(.TT(4'b1000)) g32_s2(.clk(clk), .a(pi3), .b(pi6), .q(n32));
  sfq_gate2 #(.TT(4'b1000)) g33_s1(.clk(clk), .a(pi2), .b(pi7), .q(n33));
  sfq_t1 t1_34_s4(.clk(clk), .t0(n31), .t1(n32), .t2(n33), .s(n34), .c(n34_p1), .q(n34_p2));
  sfq_t1 t1_35_s6(.clk(clk), .t0(n30), .t1(n25_p1_d5), .t2(n34), .s(n35), .c(n35_p1), .q(n35_p2));
  sfq_t1 t1_36_s8(.clk(clk), .t0(n29_d5), .t1(n26_p1_d7), .t2(n35), .s(n36), .c(n36_p1), .q(n36_p2));
  sfq_gate2 #(.TT(4'b0110)) g37_s10(.clk(clk), .a(n28), .b(~n36), .q(n37));
  sfq_gate2 #(.TT(4'b0010)) g38_s9(.clk(clk), .a(n28), .b(~n36), .q(n38));
  sfq_gate2 #(.TT(4'b1000)) g39_s4(.clk(clk), .a(pi1), .b(pi9), .q(n39));
  sfq_gate2 #(.TT(4'b1000)) g40_s2(.clk(clk), .a(pi2), .b(pi8), .q(n40));
  sfq_gate2 #(.TT(4'b1000)) g41_s1(.clk(clk), .a(pi4), .b(pi6), .q(n41));
  sfq_gate2 #(.TT(4'b1000)) g42_s1(.clk(clk), .a(pi3), .b(pi7), .q(n42));
  sfq_gate2 #(.TT(4'b1001)) g43_s2(.clk(clk), .a(n41), .b(n42), .q(n43));
  sfq_gate2 #(.TT(4'b1001)) g44_s5(.clk(clk), .a(~n34_p1), .b(n43), .q(n44));
  sfq_gate2 #(.TT(4'b0110)) g45_s6(.clk(clk), .a(n40), .b(n44), .q(n45));
  sfq_gate2 #(.TT(4'b1001)) g46_s7(.clk(clk), .a(~n35_p1), .b(n45), .q(n46));
  sfq_gate2 #(.TT(4'b0110)) g47_s8(.clk(clk), .a(n39), .b(n46), .q(n47));
  sfq_gate2 #(.TT(4'b1001)) g48_s9(.clk(clk), .a(~n36_p1), .b(n47), .q(n48));
  sfq_gate2 #(.TT(4'b0110)) g49_s10(.clk(clk), .a(n38), .b(n48), .q(n49));
  sfq_gate3 #(.TT(8'hd4)) g50_s9(.clk(clk), .a(n39_d8), .b(~n35_p1), .c(n45), .q(n50));
  sfq_gate2 #(.TT(4'b1000)) g51_s3(.clk(clk), .a(pi2), .b(pi9), .q(n51));
  sfq_gate3 #(.TT(8'hd4)) g52_s5(.clk(clk), .a(n40), .b(~n34_p1), .c(n43), .q(n52));
  sfq_gate2 #(.TT(4'b1000)) g53_s3(.clk(clk), .a(pi4), .b(pi7), .q(n53));
  sfq_gate2 #(.TT(4'b1000)) g54_s1(.clk(clk), .a(pi3), .b(pi8), .q(n54));
  sfq_gate2 #(.TT(4'b1000)) g55_s2(.clk(clk), .a(n41), .b(n42), .q(n55));
  sfq_t1 t1_56_s4(.clk(clk), .t0(n53), .t1(n54), .t2(n55), .s(n56), .c(n56_p1), .q(n56_p2));
  sfq_gate2 #(.TT(4'b1001)) g57_s6(.clk(clk), .a(n52), .b(~n56), .q(n57));
  sfq_gate2 #(.TT(4'b0110)) g58_s7(.clk(clk), .a(n51), .b(n57), .q(n58));
  sfq_gate3 #(.TT(8'h8e)) g59_s10(.clk(clk), .a(~n36_p1), .b(n47), .c(n38), .q(n59));
  sfq_t1 t1_60_s11(.clk(clk), .t0(n50), .t1(n58), .t2(n59), .s(n60), .c(n60_p1), .q(n60_p2));
  sfq_gate3 #(.TT(8'hd4)) g61_s6(.clk(clk), .a(n51), .b(n52), .c(~n56), .q(n61));
  sfq_gate2 #(.TT(4'b1000)) g62_s3(.clk(clk), .a(pi4), .b(pi8), .q(n62));
  sfq_gate2 #(.TT(4'b1000)) g63_s1(.clk(clk), .a(pi3), .b(pi9), .q(n63));
  sfq_t1 t1_64_s5(.clk(clk), .t0(n62), .t1(n63), .t2(n56_p1), .s(n64), .c(n64_p1), .q(n64_p2));
  sfq_gate2 #(.TT(4'b1001)) g65_s8(.clk(clk), .a(n61), .b(~n64), .q(n65));
  sfq_gate2 #(.TT(4'b1001)) g66_s12(.clk(clk), .a(n60_p1), .b(n65), .q(n66));
  sfq_gate3 #(.TT(8'he8)) g67_s12(.clk(clk), .a(n61_d10), .b(~n64_d9), .c(n60_p1), .q(n67));
  sfq_gate2 #(.TT(4'b1000)) g68_s1(.clk(clk), .a(pi4), .b(pi9), .q(n68));
  sfq_gate2 #(.TT(4'b0110)) g69_s9(.clk(clk), .a(n68_d5), .b(~n64_p1), .q(n69));
  sfq_gate2 #(.TT(4'b1001)) g70_s13(.clk(clk), .a(n67), .b(n69), .q(n70));
  sfq_gate3 #(.TT(8'hd4)) g71_s13(.clk(clk), .a(n68_d9), .b(~n64_p1_d9), .c(n67), .q(n71));
  sfq_dff dff_n10_6_s6(.clk(clk), .d(n10), .q(n10_d6)); // gap 4
  sfq_dff dff_n10_10_s10(.clk(clk), .d(n10_d6), .q(n10_d10)); // gap 4
  sfq_dff dff_n13_6_s6(.clk(clk), .d(n13), .q(n13_d6)); // gap 4
  sfq_dff dff_n13_10_s10(.clk(clk), .d(n13_d6), .q(n13_d10)); // gap 4
  sfq_dff dff_n18_p1_5_s5(.clk(clk), .d(n18_p1), .q(n18_p1_d5)); // gap 1
  sfq_dff dff_n19_10_s10(.clk(clk), .d(n19), .q(n19_d10)); // gap 4
  sfq_dff dff_n25_p1_5_s5(.clk(clk), .d(n25_p1), .q(n25_p1_d5)); // gap 1
  sfq_dff dff_n26_p1_7_s7(.clk(clk), .d(n26_p1), .q(n26_p1_d7)); // gap 1
  sfq_dff dff_n27_11_s11(.clk(clk), .d(n27), .q(n27_d11)); // gap 4
  sfq_dff dff_n29_5_s5(.clk(clk), .d(n29), .q(n29_d5)); // gap 4
  sfq_dff dff_n39_8_s8(.clk(clk), .d(n39), .q(n39_d8)); // gap 4
  sfq_dff dff_n61_10_s10(.clk(clk), .d(n61), .q(n61_d10)); // gap 4
  sfq_dff dff_n64_9_s9(.clk(clk), .d(n64), .q(n64_d9)); // gap 4
  sfq_dff dff_n64_p1_9_s9(.clk(clk), .d(n64_p1), .q(n64_p1_d9)); // gap 4
  sfq_dff dff_n68_5_s5(.clk(clk), .d(n68), .q(n68_d5)); // gap 4
  sfq_dff dff_n68_9_s9(.clk(clk), .d(n68_d5), .q(n68_d9)); // gap 4
  assign po0 = n10_d10;
  assign po1 = ~n13_d10;
  assign po2 = ~n19_d10;
  assign po3 = ~n27_d11;
  assign po4 = ~n37;
  assign po5 = ~n49;
  assign po6 = ~n60;
  assign po7 = ~n66;
  assign po8 = ~n70;
  assign po9 = ~n71;
endmodule
